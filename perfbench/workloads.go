package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/silicon"
	"repro/internal/store"
)

// shape sizes one workload. The benchmark runs the full shapes below;
// the self-test runs reduced ones through the same code.
type shape struct {
	devices int
	months  int // evaluated months are 0..months
	window  int
	workers int
	shards  int     // service-sharded only
	floor   float64 // fleet-screen only: screening stability floor
}

// measurements is the number of power-up patterns a campaign's results
// account for: survivors × window, summed over months.
func (s shape) measurements(res *core.Results) int64 {
	var n int64
	for _, m := range res.Monthly {
		n += int64(len(m.Devices)) * int64(s.window)
	}
	return n
}

// instance is one prepared workload: everything up to the first Measure
// or submit is done, and campaigns can run back to back.
type instance interface {
	// campaign runs one campaign and returns its month series. tr is nil
	// in untraced runs.
	campaign(ctx context.Context, tr *tracer) (*core.Results, error)
	// check cross-checks the latest campaign's results beyond the digest;
	// it runs outside the timed region.
	check(ctx context.Context, res *core.Results) error
	close() error
}

// workload is one benchmark input set and the public entry point it
// drives.
type workload struct {
	name    string
	shape   shape
	prepare func(ctx context.Context, w *workload, dir string, seed uint64, tr *tracer) (instance, error)
	// profiles are resolved once, untimed, before any set-up so that the
	// calibration cache is warm for every timed set-up.
	profiles []string
	// lazy marks a lazily rebuilt source, whose rebuild time the traced
	// run derives from Measure wall minus accumulation and sampling.
	lazy bool
}

const (
	paperProfile = "atmega32u4"
	paperDevices = 16
	paperMonths  = 24
	paperWindow  = 1000
	benchWorkers = 2
)

var fleetProfiles = []string{"fleetnode-1kb", "fleetnode-2kb"}

func workloads() []*workload {
	return []*workload{
		{
			name:     "paper-direct",
			shape:    shape{devices: paperDevices, months: paperMonths, window: paperWindow, workers: benchWorkers},
			prepare:  prepareDirect,
			profiles: []string{paperProfile},
		},
		{
			name:     "fleet-screen",
			shape:    shape{devices: 100, months: paperMonths, window: 4, workers: benchWorkers, floor: 0.94},
			prepare:  prepareFleet,
			profiles: fleetProfiles,
			lazy:     true,
		},
		{
			name:     "archive-replay",
			shape:    shape{devices: paperDevices, months: paperMonths, window: 250, workers: benchWorkers},
			prepare:  prepareArchive,
			profiles: []string{paperProfile},
		},
		{
			name:     "service-sharded",
			shape:    shape{devices: paperDevices, months: paperMonths, window: 100, workers: benchWorkers, shards: 2},
			prepare:  prepareService,
			profiles: []string{paperProfile},
		},
	}
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// progress returns the engine's Progress hook for a traced run.
func progress(tr *tracer) func(core.MonthEval) {
	if tr == nil {
		return nil
	}
	return tr.monthDone
}

// directInstance runs campaigns on an in-process simulated source.
type directInstance struct {
	shape     shape
	build     func() (core.Source, error)
	screening *core.ScreeningConfig
	checkFn   func(res *core.Results) error
	pending   core.Source // built during set-up, used by the first campaign
}

func (d *directInstance) campaign(ctx context.Context, tr *tracer) (*core.Results, error) {
	src := d.pending
	d.pending = nil
	if src == nil {
		var err error
		if src, err = d.build(); err != nil {
			return nil, err
		}
	}
	eng, err := core.NewAssessment(core.AssessmentConfig{
		Source:     traceSource(src, tr, false),
		WindowSize: d.shape.window,
		Months:     core.MonthRange(d.shape.months),
		Screening:  d.screening,
		Progress:   progress(tr),
	})
	if err != nil {
		return nil, err
	}
	return eng.Run(ctx)
}

func (d *directInstance) check(_ context.Context, res *core.Results) error { return d.checkFn(res) }
func (d *directInstance) close() error                                     { return nil }

// prepareDirect is paper-direct: the paper's campaign on an eager
// SimSource.
func prepareDirect(_ context.Context, w *workload, _ string, seed uint64, _ *tracer) (instance, error) {
	p, err := silicon.Lookup(paperProfile)
	if err != nil {
		return nil, err
	}
	sh := w.shape
	d := &directInstance{
		shape: sh,
		build: func() (core.Source, error) {
			s, err := core.NewSimSource(p, sh.devices, seed)
			if err != nil {
				return nil, err
			}
			s.SetWorkers(sh.workers)
			return s, nil
		},
		checkFn: func(res *core.Results) error {
			if sh.months == paperMonths && sh.window == paperWindow {
				return checkPaperWCHD(res)
			}
			return nil
		},
	}
	if d.pending, err = d.build(); err != nil {
		return nil, err
	}
	return d, nil
}

// prepareFleet is fleet-screen: a lazy mixed fleet under a screening
// floor.
func prepareFleet(_ context.Context, w *workload, _ string, seed uint64, _ *tracer) (instance, error) {
	var profiles []silicon.DeviceProfile
	for _, name := range fleetProfiles {
		p, err := silicon.Lookup(name)
		if err != nil {
			return nil, err
		}
		profiles = append(profiles, p)
	}
	fleet, err := core.NewFleet(profiles...)
	if err != nil {
		return nil, err
	}
	sh := w.shape
	d := &directInstance{
		shape: sh,
		build: func() (core.Source, error) {
			s, err := core.NewLazySimFleetSource(fleet, sh.devices, seed)
			if err != nil {
				return nil, err
			}
			s.SetWorkers(sh.workers)
			return s, nil
		},
		screening: &core.ScreeningConfig{Floor: sh.floor},
		checkFn:   func(res *core.Results) error { return checkScreened(res, sh.devices) },
	}
	if d.pending, err = d.build(); err != nil {
		return nil, err
	}
	return d, nil
}

// archiveInstance replays one written archive.
type archiveInstance struct {
	shape   shape
	path    string
	written string // digest of the campaign that wrote the archive
	pending *core.ArchiveSource
}

// prepareArchive is archive-replay's set-up: a tapped one-shard
// simulated campaign writes an indexed v2 archive, which is then opened.
func prepareArchive(ctx context.Context, w *workload, dir string, seed uint64, tr *tracer) (instance, error) {
	p, err := silicon.Lookup(paperProfile)
	if err != nil {
		return nil, err
	}
	sh := w.shape
	a := &archiveInstance{shape: sh, path: filepath.Join(dir, "campaign.bin")}
	res, err := writeArchive(ctx, p, sh, seed, a.path, tr)
	if err != nil {
		return nil, fmt.Errorf("writing archive: %w", err)
	}
	if a.written, err = digest(res); err != nil {
		return nil, err
	}
	if err := tr.timed(func(l *layerTotals) *int64 { return &l.openNs }, func() error {
		a.pending, err = core.OpenArchiveSource(a.path)
		return err
	}); err != nil {
		return nil, err
	}
	return a, nil
}

// writeArchive runs the recording campaign: NewShardedSimSource with one
// in-process shard, its record tap feeding store.NewBinaryWriter.
func writeArchive(ctx context.Context, p silicon.DeviceProfile, sh shape, seed uint64, path string, tr *tracer) (*core.Results, error) {
	src, err := core.NewShardedSimSource(p, sh.devices, seed, 1, nil)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	src.SetWorkers(sh.workers)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bw := store.NewBinaryWriter(f)
	writeNs := func(l *layerTotals) *int64 { return &l.writeNs }
	src.SetTap(func(rec store.Record) error {
		return tr.timed(writeNs, func() error { return bw.Write(rec) })
	})
	eng, err := core.NewAssessment(core.AssessmentConfig{
		Source:     src,
		WindowSize: sh.window,
		Months:     core.MonthRange(sh.months),
	})
	if err != nil {
		return nil, err
	}
	res, err := eng.Run(ctx)
	if err != nil {
		return nil, err
	}
	if err := tr.timed(writeNs, bw.Flush); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(path); err == nil {
		tr.add(func(l *layerTotals) { l.bytesWrite += fi.Size() })
	}
	return res, nil
}

func (a *archiveInstance) campaign(ctx context.Context, tr *tracer) (*core.Results, error) {
	src := a.pending
	a.pending = nil
	if src == nil {
		if err := tr.timed(func(l *layerTotals) *int64 { return &l.openNs }, func() error {
			var err error
			src, err = core.OpenArchiveSource(a.path)
			return err
		}); err != nil {
			return nil, err
		}
	}
	defer src.Close()
	src.SetWorkers(a.shape.workers)
	var read0 int64
	if tr != nil {
		read0 = readBytes()
	}
	// Months are left to the archive's MonthLister, as a replaying
	// user would.
	eng, err := core.NewAssessment(core.AssessmentConfig{
		Source:     traceSource(src, tr, true),
		WindowSize: a.shape.window,
		Progress:   progress(tr),
	})
	if err != nil {
		return nil, err
	}
	res, err := eng.Run(ctx)
	if tr != nil {
		read := readBytes() - read0
		tr.add(func(l *layerTotals) { l.bytesRead += read })
	}
	return res, err
}

func (a *archiveInstance) check(_ context.Context, res *core.Results) error {
	got, err := digest(res)
	if err != nil {
		return err
	}
	if got != a.written {
		return fmt.Errorf("replay digest %s differs from the recording campaign's %s", got, a.written)
	}
	return nil
}

func (a *archiveInstance) close() error {
	if a.pending != nil {
		a.pending.Close()
	}
	return os.Remove(a.path)
}

// serviceInstance is an in-process assessd: a serve.Manager behind
// serve.Handler on a loopback listener, driven by one serve.Client.
type serviceInstance struct {
	shape   shape
	seed    uint64
	dataDir string
	mgr     *serve.Manager
	srv     *http.Server
	served  chan error
	rt      *countingTransport
	client  *serve.Client
	lastID  string
}

func prepareService(_ context.Context, w *workload, dir string, seed uint64, _ *tracer) (instance, error) {
	s := &serviceInstance{shape: w.shape, seed: seed, dataDir: filepath.Join(dir, "assessd")}
	if err := os.RemoveAll(s.dataDir); err != nil {
		return nil, err
	}
	mgr, err := serve.NewManager(serve.Config{DataDir: s.dataDir, Workers: w.shape.workers, MaxActive: 1})
	if err != nil {
		return nil, err
	}
	s.mgr = mgr
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close(context.Background())
		return nil, err
	}
	s.srv = &http.Server{Handler: serve.Handler(mgr)}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.rt = &countingTransport{base: &http.Transport{}}
	s.client = &serve.Client{Base: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: s.rt}}
	return s, nil
}

func (s *serviceInstance) campaign(ctx context.Context, tr *tracer) (*core.Results, error) {
	spec := serve.Spec{
		Devices: s.shape.devices,
		Months:  s.shape.months,
		Window:  s.shape.window,
		Shards:  s.shape.shards,
		Workers: s.shape.workers,
		Seed:    s.seed,
	}
	var st serve.CampaignState
	if err := tr.timed(func(l *layerTotals) *int64 { return &l.submitNs }, func() error {
		var err error
		st, err = s.client.Submit(ctx, spec)
		return err
	}); err != nil {
		return nil, err
	}
	s.lastID = st.ID
	bytes0, events0 := s.rt.bytes.Load(), s.rt.lines.Load()
	res, err := s.client.Watch(ctx, st.ID, progress(tr))
	if tr != nil {
		nb, ne := s.rt.bytes.Load()-bytes0, s.rt.lines.Load()-events0
		ck := dirBytes(s.dataDir)
		tr.add(func(l *layerTotals) { l.ndjsonBytes += nb; l.events += ne; l.ckptBytes += ck })
	}
	return res, err
}

// check replays the campaign's own checkpoint archive and requires the
// streamed results to equal it, then deletes the campaign's files.
func (s *serviceInstance) check(ctx context.Context, res *core.Results) error {
	defer func() {
		os.Remove(filepath.Join(s.dataDir, s.lastID+".bin"))
		os.Remove(filepath.Join(s.dataDir, s.lastID+".state.json"))
	}()
	src, err := core.OpenArchiveSource(filepath.Join(s.dataDir, s.lastID+".bin"))
	if err != nil {
		return fmt.Errorf("opening checkpoint: %w", err)
	}
	defer src.Close()
	src.SetWorkers(s.shape.workers)
	eng, err := core.NewAssessment(core.AssessmentConfig{
		Source:     src,
		WindowSize: s.shape.window,
		Months:     core.MonthRange(s.shape.months),
	})
	if err != nil {
		return err
	}
	replayed, err := eng.Run(ctx)
	if err != nil {
		return fmt.Errorf("replaying checkpoint: %w", err)
	}
	want, err := digest(replayed)
	if err != nil {
		return err
	}
	got, err := digest(res)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("streamed results %s differ from the checkpoint replay %s", got, want)
	}
	return nil
}

func (s *serviceInstance) close() error {
	ctx := context.Background()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if merr := s.mgr.Close(ctx); merr != nil && err == nil {
		err = merr
	}
	s.rt.base.CloseIdleConnections()
	return err
}

// checkPaperWCHD is a calibration sanity check, not a validation: the
// paper's Table I WCHD (2.49% at the start, 2.97% after 24 months) are
// the targets the device model was calibrated to, so a campaign far from
// them means the model or its calibration broke.
func checkPaperWCHD(res *core.Results) error {
	const tol = 0.0025
	w := res.Table.WCHD.Avg
	if math.Abs(w.Start-0.0249) > tol || math.Abs(w.End-0.0297) > tol {
		return fmt.Errorf("Table I WCHD %.4f -> %.4f, want near the calibration targets 0.0249 -> 0.0297", w.Start, w.End)
	}
	return nil
}

// checkScreened requires the screening campaign to have pruned part of
// the fleet and kept part of it to the last month.
func checkScreened(res *core.Results, devices int) error {
	if len(res.Monthly) == 0 {
		return errors.New("no months evaluated")
	}
	last := res.Monthly[len(res.Monthly)-1]
	if last.Survivors < 2 || last.Survivors >= devices {
		return fmt.Errorf("%d of %d devices survive to month %d, want some pruned and at least 2 left", last.Survivors, devices, last.Month)
	}
	return nil
}
