package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/sram"
)

// span is one traced interval. Spans of one campaign share Campaign;
// Parent names the span that caused this one (0: the campaign root).
// Device spans cover one device's deliveries within one Measure call and
// carry the counts measured at that boundary.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Campaign int    `json:"campaign"`
	Name     string `json:"name"`
	Month    int    `json:"month"`
	Device   int    `json:"device"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Count    int64  `json:"count,omitempty"`
	GapNs    int64  `json:"gap_ns,omitempty"`
	AddNs    int64  `json:"add_ns,omitempty"`
}

// layerTotals are the per-layer sums the traced run reports. Durations
// are nanoseconds of busy time summed across goroutines unless noted.
type layerTotals struct {
	ageNs       int64 // sram.AgeTo through SimSource.Arrays, before Measure
	sampleNs    int64 // inter-delivery gaps of one device on a simulated source
	samples     int64
	decodeNs    int64 // inter-delivery gaps of one device during archive replay
	accNs       int64 // inside the engine's sink: stream accumulation
	adds        int64
	measureNs   int64 // wall time inside Source.Measure
	monthNs     int64 // wall time of whole months (Progress to Progress)
	pruneNs     int64 // wall time inside DevicePruner.PruneDevices
	deviceMonth int64 // devices delivering at least once, summed over months
	openNs      int64 // store: archive opens
	writeNs     int64 // store: tap writer calls and the final flush
	bytesWrite  int64
	bytesRead   int64
	submitNs    int64 // serve: Client.Submit round trips
	ndjsonBytes int64
	events      int64
	ckptBytes   int64
	gcCycles    int64
	allocBytes  int64
}

// tracer records spans and layer totals from outside the engine: every
// number comes from wrapping a call into a layer, so the program under
// test is unchanged. A nil *tracer is valid and records nothing, which
// is how untraced runs share the campaign code.
type tracer struct {
	base time.Time

	mu       sync.Mutex
	spans    []span
	tot      layerTotals
	campaign int
	runSpan  int
	monthEnd int64 // end of the previous month (or the run start)
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// addSpan appends a span and returns its ID.
func (t *tracer) addSpan(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.Campaign = t.campaign
	t.spans = append(t.spans, s)
	return s.ID
}

// add folds a delta into the totals under the lock.
func (t *tracer) add(f func(*layerTotals)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	f(&t.tot)
	t.mu.Unlock()
}

// timed runs fn and adds its wall time to the total fn selects.
func (t *tracer) timed(field func(*layerTotals) *int64, fn func() error) error {
	if t == nil {
		return fn()
	}
	t0 := t.now()
	err := fn()
	d := t.now() - t0
	t.add(func(l *layerTotals) { *field(l) += d })
	return err
}

// startCampaign opens the campaign's root span; months chain off it.
func (t *tracer) startCampaign(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.campaign++
	t.mu.Unlock()
	now := t.now()
	t.runSpan = t.addSpan(span{Name: name, Month: -1, Device: -1, StartNs: now, EndNs: now})
	t.monthEnd = now
}

// endCampaign closes the root span.
func (t *tracer) endCampaign() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[t.runSpan-1].EndNs = t.now()
	t.mu.Unlock()
}

// monthDone is the engine's Progress hook: a month spans from the end of
// the previous one to its own emission, and its Measure spans become its
// children retroactively (they are recorded while the month is open).
func (t *tracer) monthDone(ev core.MonthEval) {
	if t == nil {
		return
	}
	now := t.now()
	id := t.addSpan(span{Parent: t.runSpan, Name: "month", Month: ev.Month, Device: -1, StartNs: t.monthEnd, EndNs: now})
	t.mu.Lock()
	for i := len(t.spans) - 2; i >= 0 && t.spans[i].Campaign == t.campaign && t.spans[i].Name != "month"; i-- {
		if t.spans[i].Name == "measure" && t.spans[i].Parent == 0 {
			t.spans[i].Parent = id
		}
	}
	t.tot.monthNs += now - t.monthEnd
	t.mu.Unlock()
	t.monthEnd = now
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// deviceSlot is one device's delivery bookkeeping within one Measure.
// The engine delivers one device's measurements sequentially (its
// accumulators are unsynchronised too), so each slot has one writer at a
// time and the Measure return orders it before aggregation.
type deviceSlot struct {
	first, last  int64
	gapNs, accNs int64
	gaps, adds   int64
	_            [2]int64 // pad to a cache line: neighbours are written by other workers
}

// tracedSource decorates a core.Source with spans and layer totals. It
// forwards every optional interface the engine type-asserts; for an
// interface the inner source lacks, the method answers exactly as the
// engine's "not implemented" branch would proceed (no months, no
// profile knowledge, a configuration error on pruning), so the traced
// run takes the same path as the untraced one.
type tracedSource struct {
	inner core.Source
	tr    *tracer
	// gapIsDecode attributes inter-delivery gaps to the store decoder
	// (archive replay) rather than to sram power-up sampling.
	gapIsDecode bool
}

var (
	_ core.MonthLister          = (*tracedSource)(nil)
	_ core.SurvivingMonthLister = (*tracedSource)(nil)
	_ core.WorkerSetter         = (*tracedSource)(nil)
	_ core.DevicePruner         = (*tracedSource)(nil)
	_ core.ProfileAssigner      = (*tracedSource)(nil)
	_ core.ProfileLister        = (*tracedSource)(nil)
)

// traceSource wraps src when tr is non-nil and returns src unchanged
// otherwise.
func traceSource(src core.Source, tr *tracer, gapIsDecode bool) core.Source {
	if tr == nil {
		return src
	}
	return &tracedSource{inner: src, tr: tr, gapIsDecode: gapIsDecode}
}

func (s *tracedSource) Devices() int { return s.inner.Devices() }

func (s *tracedSource) AvailableMonths(windowSize int) ([]int, error) {
	if ml, ok := s.inner.(core.MonthLister); ok {
		return ml.AvailableMonths(windowSize)
	}
	return nil, nil
}

func (s *tracedSource) AvailableMonthsSurviving(windowSize int) ([]int, error) {
	if ml, ok := s.inner.(core.SurvivingMonthLister); ok {
		return ml.AvailableMonthsSurviving(windowSize)
	}
	return nil, nil
}

func (s *tracedSource) SetWorkers(n int) {
	if ws, ok := s.inner.(core.WorkerSetter); ok {
		ws.SetWorkers(n)
	}
}

func (s *tracedSource) PruneDevices(indices []int) error {
	dp, ok := s.inner.(core.DevicePruner)
	if !ok {
		return fmt.Errorf("%w: %T cannot prune devices", core.ErrConfig, s.inner)
	}
	return s.tr.timed(func(l *layerTotals) *int64 { return &l.pruneNs }, func() error {
		return dp.PruneDevices(indices)
	})
}

func (s *tracedSource) ProfileAssignment() ([]string, []uint8) {
	if pa, ok := s.inner.(core.ProfileAssigner); ok {
		return pa.ProfileAssignment()
	}
	return nil, nil
}

func (s *tracedSource) DeviceProfileNames() []string {
	if pl, ok := s.inner.(core.ProfileLister); ok {
		return pl.DeviceProfileNames()
	}
	return nil
}

// Measure records one Measure span with a child span per delivering
// device. Eager simulated arrays are aged to the month first, through
// the idempotent sram.Array.AgeTo, so the forwarded Measure repeats no
// aging work and the aging layer is timed on its own.
func (s *tracedSource) Measure(ctx context.Context, month, size int, sink core.Sink) error {
	tr := s.tr
	start := tr.now()
	ar, eager := s.inner.(interface{ Arrays() []*sram.Array })
	if eager {
		for _, a := range ar.Arrays() {
			if a == nil { // pruned
				continue
			}
			if err := a.AgeTo(float64(month)); err != nil {
				return err
			}
		}
	}
	aged := tr.now()

	slots := make([]deviceSlot, s.inner.Devices())
	wrapped := func(d int, m *bitvec.Vector) error {
		if d < 0 || d >= len(slots) {
			return sink(d, m) // the engine reports the unknown device
		}
		sl := &slots[d]
		t0 := tr.now()
		if sl.adds > 0 {
			sl.gapNs += t0 - sl.last
			sl.gaps++
		} else {
			sl.first = t0
		}
		err := sink(d, m)
		t1 := tr.now()
		sl.accNs += t1 - t0
		sl.adds++
		sl.last = t1
		return err
	}
	err := s.inner.Measure(ctx, month, size, wrapped)
	end := tr.now()

	mid := tr.addSpan(span{Name: "measure", Month: month, Device: -1, StartNs: start, EndNs: end})
	var devices, gaps, gapNs, accNs, adds int64
	for d := range slots {
		sl := &slots[d]
		if sl.adds == 0 {
			continue
		}
		devices++
		gaps += sl.gaps
		gapNs += sl.gapNs
		accNs += sl.accNs
		adds += sl.adds
		tr.addSpan(span{Parent: mid, Name: "deliver", Month: month, Device: d, StartNs: sl.first, EndNs: sl.last,
			Count: sl.adds, GapNs: sl.gapNs, AddNs: sl.accNs})
	}
	tr.add(func(l *layerTotals) {
		if eager {
			l.ageNs += aged - start
		}
		l.measureNs += end - start
		l.deviceMonth += devices
		if s.gapIsDecode {
			l.decodeNs += gapNs
		} else {
			l.sampleNs += gapNs
			l.samples += gaps
		}
		l.accNs += accNs
		l.adds += adds
	})
	return err
}
