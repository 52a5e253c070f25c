package main

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/silicon"
)

// reduced shrinks every workload to a few devices and months so the
// self-test runs each one through the benchmark's own code in seconds.
var reduced = map[string]shape{
	"paper-direct":    {devices: 4, months: 2, window: 20, workers: 2},
	"fleet-screen":    {devices: 24, months: 4, window: 4, workers: 2, floor: 0.94},
	"archive-replay":  {devices: 4, months: 2, window: 20, workers: 2},
	"service-sharded": {devices: 4, months: 2, window: 20, workers: 2, shards: 2},
}

// runOnce prepares a workload and runs one checked campaign, returning
// its digest and measurement count.
func runOnce(t *testing.T, w *workload, tr *tracer) (string, int64) {
	t.Helper()
	ctx := context.Background()
	inst, err := w.prepare(ctx, w, t.TempDir(), campaignSeed(7, w.name), tr)
	if err != nil {
		t.Fatalf("%s: set-up: %v", w.name, err)
	}
	defer func() {
		if err := inst.close(); err != nil {
			t.Errorf("%s: close: %v", w.name, err)
		}
	}()
	tr.startCampaign(w.name)
	res, err := inst.campaign(ctx, tr)
	tr.endCampaign()
	if err != nil {
		t.Fatalf("%s: campaign: %v", w.name, err)
	}
	if err := inst.check(ctx, res); err != nil {
		t.Fatalf("%s: check: %v", w.name, err)
	}
	d, err := digest(res)
	if err != nil {
		t.Fatal(err)
	}
	return d, w.shape.measurements(res)
}

// TestTracedEqualsUntraced keeps tracing outside the determinism
// boundary: a reduced run of every workload yields the same digest with
// and without the tracing decorators, and the traced run records work.
func TestTracedEqualsUntraced(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			w.shape = reduced[w.name]
			plain, _ := runOnce(t, w, nil)
			tr := newTracer()
			traced, meas := runOnce(t, w, tr)
			if plain != traced {
				t.Fatalf("traced digest %s, untraced %s", traced, plain)
			}
			if len(tr.spans) < 2 {
				t.Fatalf("traced run recorded %d spans", len(tr.spans))
			}
			if w.name == "service-sharded" {
				if tr.tot.events == 0 || tr.tot.ckptBytes == 0 {
					t.Fatalf("service counters not recorded: %+v", tr.tot)
				}
			} else if tr.tot.adds != meas {
				t.Fatalf("traced %d deliveries, campaign made %d", tr.tot.adds, meas)
			}
		})
	}
}

// TestTracedSourceForwardsInterfaces checks, for every source the
// benchmark wraps, that each optional interface the engine type-asserts
// answers through the decorator exactly as the inner source answers it,
// or as an absent interface would.
func TestTracedSourceForwardsInterfaces(t *testing.T) {
	p, err := silicon.Lookup(paperProfile)
	if err != nil {
		t.Fatal(err)
	}
	var profiles []silicon.DeviceProfile
	for _, name := range fleetProfiles {
		fp, err := silicon.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, fp)
	}
	fleet, err := core.NewFleet(profiles...)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.NewSimSource(p, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := core.NewLazySimFleetSource(fleet, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := core.NewShardedSimFleetSource(fleet, 4, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	path := t.TempDir() + "/a.bin"
	if _, err := writeArchive(context.Background(), p, reduced["archive-replay"], 1, path, nil); err != nil {
		t.Fatal(err)
	}
	arch, err := core.OpenArchiveSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()

	for _, inner := range []core.Source{sim, lazy, sharded, arch} {
		ts := traceSource(inner, newTracer(), false).(*tracedSource)
		name := reflect.TypeOf(inner).String()
		if ml, ok := inner.(core.MonthLister); ok {
			want, werr := ml.AvailableMonths(20)
			got, gerr := ts.AvailableMonths(20)
			if !reflect.DeepEqual(got, want) || (gerr == nil) != (werr == nil) {
				t.Errorf("%s AvailableMonths: %v %v, want %v %v", name, got, gerr, want, werr)
			}
		} else if got, err := ts.AvailableMonths(20); got != nil || err != nil {
			t.Errorf("%s lacks MonthLister but the decorator lists %v %v", name, got, err)
		}
		if ml, ok := inner.(core.SurvivingMonthLister); ok {
			want, werr := ml.AvailableMonthsSurviving(20)
			got, gerr := ts.AvailableMonthsSurviving(20)
			if !reflect.DeepEqual(got, want) || (gerr == nil) != (werr == nil) {
				t.Errorf("%s AvailableMonthsSurviving: %v %v, want %v %v", name, got, gerr, want, werr)
			}
		} else if got, err := ts.AvailableMonthsSurviving(20); got != nil || err != nil {
			t.Errorf("%s lacks SurvivingMonthLister but the decorator lists %v %v", name, got, err)
		}
		if pa, ok := inner.(core.ProfileAssigner); ok {
			wn, wi := pa.ProfileAssignment()
			gn, gi := ts.ProfileAssignment()
			if !reflect.DeepEqual(gn, wn) || !reflect.DeepEqual(gi, wi) {
				t.Errorf("%s ProfileAssignment differs through the decorator", name)
			}
		} else if gn, gi := ts.ProfileAssignment(); gn != nil || gi != nil {
			t.Errorf("%s lacks ProfileAssigner but the decorator assigns", name)
		}
		if pl, ok := inner.(core.ProfileLister); ok {
			if !reflect.DeepEqual(ts.DeviceProfileNames(), pl.DeviceProfileNames()) {
				t.Errorf("%s DeviceProfileNames differs through the decorator", name)
			}
		} else if got := ts.DeviceProfileNames(); got != nil {
			t.Errorf("%s lacks ProfileLister but the decorator lists %v", name, got)
		}
		if _, ok := inner.(core.WorkerSetter); ok {
			ts.SetWorkers(2) // forwarded; behaviour is covered by the digest test
		}
		if _, ok := inner.(core.DevicePruner); ok {
			if err := ts.PruneDevices(nil); err != nil {
				t.Errorf("%s PruneDevices(nil): %v", name, err)
			}
		} else if err := ts.PruneDevices(nil); err == nil {
			t.Errorf("%s lacks DevicePruner but the decorator prunes", name)
		}
	}
}
