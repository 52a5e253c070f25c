package sram

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/stats"
)

// windowTestProfiles are the geometries the read-window equivalence is
// pinned on: an i.i.d. chip whose window (320 bits) ends inside a 64-bit
// word, a correlated chip whose 96-cell lines do not divide that window
// (the cut falls inside the fourth line), and a correlated chip with
// LineBits 0, where the whole array is one line and the window cuts it.
func windowTestProfiles(t *testing.T) map[string]silicon.DeviceProfile {
	t.Helper()
	build := func(name string, opts ...silicon.ProfileOption) silicon.DeviceProfile {
		opts = append([]silicon.ProfileOption{silicon.WithGeometry(256, 40)}, opts...)
		p, err := silicon.NewProfile(name, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return map[string]silicon.DeviceProfile{
		"iid": build("window-iid"),
		"correlated-line96": build("window-corr96",
			silicon.WithCellModel(silicon.ModelCorrelated),
			silicon.WithLineStructure(96, 0.35)),
		"correlated-line0": build("window-corr0",
			silicon.WithCellModel(silicon.ModelCorrelated),
			silicon.WithLineStructure(0, 0.35)),
	}
}

// TestReadWindowMatchesFullArray: a read-window chip — built fresh with
// NewReadWindow, or Reset into place after a life as another chip — is
// bit-identical on every window cell to the full chip New builds from the
// same seed, through a noise-scale change, aging to 0, 0.5, 3, 12 and 24
// months, and several sampled windows per age: skews and
// one-probabilities by Float64bits, sampled read-outs word for word.
func TestReadWindowMatchesFullArray(t *testing.T) {
	for name, p := range windowTestProfiles(t) {
		t.Run(name, func(t *testing.T) {
			const seed = 1234
			full, err := New(p, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewReadWindow(p, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			reset, err := NewReadWindow(p, rng.New(seed+1))
			if err != nil {
				t.Fatal(err)
			}
			// A prior life: another seed, scale and age, sampled windows.
			if err := reset.SetNoiseScale(0.8); err != nil {
				t.Fatal(err)
			}
			if err := reset.AgeTo(7); err != nil {
				t.Fatal(err)
			}
			if _, err := reset.PowerUpWindow(); err != nil {
				t.Fatal(err)
			}
			reset.Reset(rng.New(seed))

			bits := p.ReadWindowBits()
			windows := map[string]*Array{"fresh": fresh, "reset": reset}
			for wname, w := range windows {
				if w.Cells() != bits {
					t.Fatalf("%s: window chip has %d cells, want %d", wname, w.Cells(), bits)
				}
				if w.Params() != full.Params() {
					t.Fatalf("%s: params %+v, full chip %+v", wname, w.Params(), full.Params())
				}
			}
			arrays := []*Array{full, fresh, reset}
			for _, a := range arrays {
				if err := a.SetNoiseScale(1.25); err != nil {
					t.Fatal(err)
				}
			}
			want := bitvec.New(bits)
			got := bitvec.New(bits)
			for _, months := range []float64{0, 0.5, 3, 12, 24} {
				for _, a := range arrays {
					if err := a.AgeTo(months); err != nil {
						t.Fatal(err)
					}
				}
				for wname, w := range windows {
					for i := 0; i < bits; i++ {
						if math.Float64bits(w.Skew(i)) != math.Float64bits(full.Skew(i)) {
							t.Fatalf("%s month %v cell %d: skew %v, full chip %v", wname, months, i, w.Skew(i), full.Skew(i))
						}
						if math.Float64bits(w.OneProbability(i)) != math.Float64bits(full.OneProbability(i)) {
							t.Fatalf("%s month %v cell %d: one-probability %v, full chip %v",
								wname, months, i, w.OneProbability(i), full.OneProbability(i))
						}
					}
					if w.ExpectedFHW() != full.ExpectedFHW() {
						t.Fatalf("%s month %v: expected FHW %v, full chip %v", wname, months, w.ExpectedFHW(), full.ExpectedFHW())
					}
				}
				for n := 0; n < 3; n++ {
					if err := full.PowerUpWindowInto(want); err != nil {
						t.Fatal(err)
					}
					for wname, w := range windows {
						if err := w.PowerUpWindowInto(got); err != nil {
							t.Fatal(err)
						}
						gw, ww := got.Words(), want.Words()
						for wi := range ww {
							if gw[wi] != ww[wi] {
								t.Fatalf("%s month %v window %d: word %d = %#x, full chip %#x",
									wname, months, n, wi, gw[wi], ww[wi])
							}
						}
					}
				}
			}
		})
	}
}

// TestNewReadWindowRejectsBadProfile: the window constructor validates
// the profile before sizing anything from it.
func TestNewReadWindowRejectsBadProfile(t *testing.T) {
	p, err := silicon.ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	p.ReadWindowBytes = -1
	if _, err := NewReadWindow(p, rng.New(1)); err == nil {
		t.Fatal("NewReadWindow accepted a negative read window")
	}
}

// ageOracle is the drift-space integration written the plain way: the
// total skew through Skew, and each cell's step split by
// aging.Kinetics.Resolve. AgeTo must reproduce it bit for bit.
func ageOracle(a *Array, months float64) {
	k := a.kin
	total := k.DriftIncrement(a.ageMonths, months)
	if total > 0 {
		steps := int(math.Ceil(total / maxDriftStep))
		h := total / float64(steps)
		for s := 0; s < steps; s++ {
			for i := range a.static {
				q := stats.PhiFast(a.Skew(i) / a.noiseScale)
				inc := k.Resolve(q, h)
				a.dP1[i] += inc.P1
				a.dP2[i] += inc.P2
				a.dN1[i] += inc.N1
				a.dN2[i] += inc.N2
				a.dDisp[i] += a.disp * a.gamma[i] * h
			}
		}
	}
	a.ageMonths = months
	a.pcacheValid = false
}

// TestAgeToMatchesResolveOracle: AgeTo's hoisted per-step split equals
// the per-cell Resolve integration exactly, on every transistor shift and
// the dispersion drift, across incremental ages and a non-nominal noise
// scale.
func TestAgeToMatchesResolveOracle(t *testing.T) {
	for name, p := range windowTestProfiles(t) {
		t.Run(name, func(t *testing.T) {
			a, err := New(p, rng.New(77))
			if err != nil {
				t.Fatal(err)
			}
			o, err := New(p, rng.New(77))
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range []*Array{a, o} {
				if err := x.SetNoiseScale(1.4); err != nil {
					t.Fatal(err)
				}
			}
			for _, months := range []float64{0.5, 3, 12, 24} {
				if err := a.AgeTo(months); err != nil {
					t.Fatal(err)
				}
				ageOracle(o, months)
				state := map[string][2][]float64{
					"dP1": {a.dP1, o.dP1}, "dP2": {a.dP2, o.dP2},
					"dN1": {a.dN1, o.dN1}, "dN2": {a.dN2, o.dN2},
					"dDisp": {a.dDisp, o.dDisp},
				}
				for field, pair := range state {
					for i := range pair[0] {
						if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
							t.Fatalf("month %v: %s[%d] = %v, oracle %v", months, field, i, pair[0][i], pair[1][i])
						}
					}
				}
				if a.dP1[0] == 0 {
					t.Fatalf("month %v: no drift integrated", months)
				}
			}
		})
	}
}
