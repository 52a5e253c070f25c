package shard

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/store"
)

// screenBackend is a stubBackend that also prunes, reports a fleet
// profile assignment and discovers surviving months — the optional
// backend contracts a screened fleet campaign drives.
type screenBackend struct {
	stubBackend
	pruned   map[int]bool
	pruneErr error
	survive  []int
	// report builds the profile assignment from the assigned global
	// indices; nil reports no breakdown.
	report func(indices []int) ([]string, []uint8)
}

func newScreenBackend(devices int) *screenBackend {
	return &screenBackend{stubBackend: stubBackend{devices: devices}, pruned: map[int]bool{}}
}

func (b *screenBackend) Prune(indices []int) error {
	if b.pruneErr != nil {
		return b.pruneErr
	}
	for _, g := range indices {
		b.pruned[g] = true
	}
	return nil
}

// Measure emits the stub records of the devices not pruned.
func (b *screenBackend) Measure(ctx context.Context, month, size, workers int, emit func(int, store.Record) error) error {
	alive := stubBackend{devices: b.devices, measureErr: b.measureErr}
	for _, g := range b.indices {
		if !b.pruned[g] {
			alive.indices = append(alive.indices, g)
		}
	}
	return alive.Measure(ctx, month, size, workers, emit)
}

func (b *screenBackend) ProfileAssignment() ([]string, []uint8) {
	if b.report == nil {
		return nil, nil
	}
	return b.report(b.indices)
}

func (b *screenBackend) MonthsSurviving(int) ([]int, error) { return b.survive, nil }

// byName reports each device's profile as the position of name(g) in
// names.
func byName(names []string, name func(g int) string) func([]int) ([]string, []uint8) {
	return func(indices []int) ([]string, []uint8) {
		idx := make([]uint8, len(indices))
		for j, g := range indices {
			for p, n := range names {
				if n == name(g) {
					idx[j] = uint8(p)
				}
			}
		}
		return names, idx
	}
}

func parity(g int) string {
	if g%2 == 0 {
		return "even"
	}
	return "odd"
}

// countingSink counts the records delivered per device.
func countingSink(devices int) (func(int, store.Record) error, func() []int) {
	var mu sync.Mutex
	counts := make([]int, devices)
	sink := func(d int, _ store.Record) error {
		mu.Lock()
		defer mu.Unlock()
		counts[d]++
		return nil
	}
	read := func() []int {
		mu.Lock()
		defer mu.Unlock()
		out := append([]int(nil), counts...)
		for d := range counts {
			counts[d] = 0
		}
		return out
	}
	return sink, read
}

// TestCoordinatorProfileAssignmentMerges: the merged assignment appears
// once every shard's first window has reported, uses shard 0's name
// order, and remaps the other shards' bytes onto it — a worker listing
// the names in another order changes nothing.
func TestCoordinatorProfileAssignmentMerges(t *testing.T) {
	const devices, shards = 9, 3
	transport := pipeTransport(t, func(i int) Backend {
		b := newScreenBackend(devices)
		names := []string{"even", "odd"}
		if i == 1 {
			names = []string{"odd", "even"}
		}
		b.report = byName(names, parity)
		return b
	})
	co, err := NewCoordinator(simSpec(devices), shards, transport)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if names, idx := co.ProfileAssignment(); names != nil || idx != nil {
		t.Fatalf("assignment before any window: %v %v", names, idx)
	}
	sink, _ := countingSink(devices)
	for month := 0; month < 2; month++ {
		if err := co.Measure(context.Background(), month, 2, sink); err != nil {
			t.Fatal(err)
		}
		names, idx := co.ProfileAssignment()
		if !reflect.DeepEqual(names, []string{"even", "odd"}) || len(idx) != devices {
			t.Fatalf("month %d: merged assignment %v / %v", month, names, idx)
		}
		for g, p := range idx {
			if names[p] != parity(g) {
				t.Fatalf("month %d: device %d merged as %q, want %q", month, g, names[p], parity(g))
			}
		}
	}
}

// TestCoordinatorProfileAssignmentMalformed: a shard payload naming a
// profile shard 0 does not know, carrying an out-of-range byte, or
// carrying the wrong number of bytes abandons the merge — no breakdown
// rather than a wrong one — while the measurement itself succeeds.
func TestCoordinatorProfileAssignmentMalformed(t *testing.T) {
	const devices = 4
	for name, report := range map[string]func([]int) ([]string, []uint8){
		"unknown name": byName([]string{"even", "prime"}, parity),
		"byte out of range": func(indices []int) ([]string, []uint8) {
			return []string{"even", "odd"}, []uint8{0, 7}
		},
		"short payload": func(indices []int) ([]string, []uint8) {
			return []string{"even", "odd"}, []uint8{0}
		},
	} {
		t.Run(name, func(t *testing.T) {
			transport := pipeTransport(t, func(i int) Backend {
				b := newScreenBackend(devices)
				b.report = byName([]string{"even", "odd"}, parity)
				if i == 1 {
					b.report = report
				}
				return b
			})
			co, err := NewCoordinator(simSpec(devices), 2, transport)
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			sink, counts := countingSink(devices)
			if err := co.Measure(context.Background(), 0, 3, sink); err != nil {
				t.Fatal(err)
			}
			if got := counts(); !reflect.DeepEqual(got, []int{3, 3, 3, 3}) {
				t.Fatalf("records per device %v", got)
			}
			if names, idx := co.ProfileAssignment(); names != nil || idx != nil {
				t.Fatalf("malformed payload merged into %v / %v", names, idx)
			}
		})
	}
}

// TestCoordinatorPrune: pruning fans out to the owning shards only, the
// next window carries no records of pruned devices (the record-count
// check would reject any), re-pruning is a no-op, and bad indices,
// backends that cannot prune, failing prunes and closed sessions report
// typed errors.
func TestCoordinatorPrune(t *testing.T) {
	const devices, shards, size = 8, 3, 2
	backends := make([]*screenBackend, shards)
	transport := pipeTransport(t, func(i int) Backend {
		backends[i] = newScreenBackend(devices)
		return backends[i]
	})
	co, err := NewCoordinator(simSpec(devices), shards, transport)
	if err != nil {
		t.Fatal(err)
	}
	sink, counts := countingSink(devices)
	if err := co.Measure(context.Background(), 0, size, sink); err != nil {
		t.Fatal(err)
	}
	if got := counts(); !reflect.DeepEqual(got, []int{2, 2, 2, 2, 2, 2, 2, 2}) {
		t.Fatalf("month 0 records per device %v", got)
	}
	// Devices 0..1 live on shard 0, 2..4 on shard 1, 5..7 on shard 2.
	if err := co.Prune([]int{1, 6, 7}); err != nil {
		t.Fatal(err)
	}
	if err := co.Prune([]int{6}); err != nil { // already pruned: no frame, no error
		t.Fatal(err)
	}
	if err := co.Measure(context.Background(), 1, size, sink); err != nil {
		t.Fatal(err)
	}
	if got := counts(); !reflect.DeepEqual(got, []int{2, 0, 2, 2, 2, 2, 0, 0}) {
		t.Fatalf("month 1 records per device %v", got)
	}
	if len(backends[1].pruned) != 0 {
		t.Fatalf("shard 1 owns none of the pruned devices but was told %v", backends[1].pruned)
	}
	for _, bad := range []int{-1, devices} {
		if err := co.Prune([]int{bad}); !errors.Is(err, ErrProtocol) {
			t.Fatalf("prune %d: %v, want ErrProtocol", bad, err)
		}
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	if err := co.Prune([]int{0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("prune after close: %v, want ErrClosed", err)
	}

	// A backend without the Pruner contract, and one whose prune fails,
	// answer with an error frame the coordinator surfaces as RemoteError.
	for name, build := range map[string]func() Backend{
		"no pruner": func() Backend { return &stubBackend{devices: 2} },
		"prune fails": func() Backend {
			b := newScreenBackend(2)
			b.pruneErr = errors.New("disk full")
			return b
		},
	} {
		co, err := NewCoordinator(simSpec(2), 1, pipeTransport(t, func(int) Backend { return build() }))
		if err != nil {
			t.Fatal(err)
		}
		var re *RemoteError
		if err := co.Prune([]int{0}); !errors.As(err, &re) {
			t.Fatalf("%s: prune error %v, want a RemoteError", name, err)
		}
		co.Close()
	}
}

// TestCoordinatorMonthsSurviving: under screening semantics the shard
// month lists are unioned (a shard whose boards were all pruned serves
// nothing for later months), and a backend that cannot discover
// surviving months reports a RemoteError.
func TestCoordinatorMonthsSurviving(t *testing.T) {
	lists := [][]int{{0, 1, 2, 3}, {0, 1}, {0, 1, 2}}
	co, err := NewCoordinator(simSpec(6), len(lists), pipeTransport(t, func(i int) Backend {
		b := newScreenBackend(6)
		b.survive = lists[i]
		return b
	}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := co.MonthsSurviving(10)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("surviving months %v, want %v", got, want)
	}
	co.Close()
	if _, err := co.MonthsSurviving(10); !errors.Is(err, ErrClosed) {
		t.Fatalf("after close: %v, want ErrClosed", err)
	}

	co, err = NewCoordinator(simSpec(2), 1, pipeTransport(t, func(int) Backend { return &stubBackend{devices: 2} }))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	var re *RemoteError
	if _, err := co.MonthsSurviving(10); !errors.As(err, &re) {
		t.Fatalf("backend without surviving-month discovery: %v, want a RemoteError", err)
	}
}
