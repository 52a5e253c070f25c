package stream

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/entropy"
	"repro/internal/rng"
)

// Pattern kinds for onesWindow: all-ones patterns drive every lane
// counter to its 255 ceiling, the others mix saturated, empty and noisy
// cells.
const (
	patRandom = iota
	patOnes
	patZeros
	patSparse
)

// onesWindow returns n patterns of the given width; pattern k has kind
// kind(k).
func onesWindow(seed uint64, bits, n int, kind func(k int) int) []*bitvec.Vector {
	r := rng.New(seed)
	out := make([]*bitvec.Vector, n)
	for k := range out {
		v := bitvec.New(bits)
		for wi := range v.Words() {
			var w uint64
			switch kind(k) {
			case patRandom:
				w = r.Uint64()
			case patOnes:
				w = ^uint64(0)
			case patSparse:
				w = r.Uint64() & r.Uint64() & r.Uint64()
			}
			v.SetWord(wi, w) // clears the padding bits
		}
		out[k] = v
	}
	return out
}

// checkOnesAgainstOracle feeds window to a fresh Ones, reading the
// probabilities after readAt patterns (a fold between two folds), and
// requires the counts — mid-stream and final — to equal entropy.OneCounts
// exactly and every finaliser to equal its oracle bit for bit.
func checkOnesAgainstOracle(t *testing.T, window []*bitvec.Vector, readAt int) {
	t.Helper()
	ones := NewOnes()
	for k, m := range window {
		if err := ones.Add(m); err != nil {
			t.Fatal(err)
		}
		if k+1 != readAt {
			continue
		}
		probs, err := ones.Probabilities()
		if err != nil {
			t.Fatal(err)
		}
		want, err := entropy.OneProbabilities(window[:readAt])
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if probs[i] != want[i] {
				t.Fatalf("after %d patterns: probability[%d] = %v, want %v", readAt, i, probs[i], want[i])
			}
		}
	}
	counts, n, err := entropy.OneCounts(window)
	if err != nil {
		t.Fatal(err)
	}
	if ones.Count() != n {
		t.Fatalf("count %d, want %d", ones.Count(), n)
	}
	got := ones.oneCounts()
	if len(got) != len(counts) {
		t.Fatalf("%d counts, want %d", len(got), len(counts))
	}
	for i := range counts {
		if got[i] != counts[i] {
			t.Fatalf("count[%d] = %d, want %d", i, got[i], counts[i])
		}
	}
	probs, err := entropy.ProbabilitiesFromCounts(counts, n)
	if err != nil {
		t.Fatal(err)
	}
	wantH, err := entropy.NoiseMinEntropy(probs)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ones.NoiseMinEntropy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(h) != math.Float64bits(wantH) {
		t.Fatalf("noise min-entropy %v, want %v", h, wantH)
	}
	wantS, err := entropy.StableCellRatio(counts, n)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := ones.StableRatio(); err != nil || s != wantS {
		t.Fatalf("stable ratio %v (%v), want %v", s, err, wantS)
	}
}

// TestOnesMatchesOneCounts: the lane accumulator agrees exactly with the
// batch oracle at every window size around the 255-Add fold period and
// at widths around the 8-cell lane and 64-cell word boundaries, for
// saturating and for noisy patterns, with a read in mid-stream.
func TestOnesMatchesOneCounts(t *testing.T) {
	kinds := map[string]func(int) int{
		"ones":  func(int) int { return patOnes },
		"mixed": func(k int) int { return k % 4 },
	}
	for _, n := range []int{1, 254, 255, 256, 510, 1000} {
		for _, bits := range []int{1, 7, 63, 65, 130, 8192} {
			for name, kind := range kinds {
				window := onesWindow(uint64(n*10000+bits), bits, n, kind)
				t.Run(fmt.Sprintf("n=%d/bits=%d/%s", n, bits, name), func(t *testing.T) {
					checkOnesAgainstOracle(t, window, (n+1)/2)
				})
			}
		}
	}
}

// FuzzOnesOracle: for any width, window size and pattern mix, Ones
// agrees with entropy.OneCounts (and its finalisers with their oracles).
func FuzzOnesOracle(f *testing.F) {
	f.Add(uint64(1), uint16(8192), uint16(300), uint8(0x55), uint16(255))
	f.Add(uint64(2), uint16(65), uint16(511), uint8(0xe4), uint16(1))
	f.Add(uint64(3), uint16(1), uint16(1), uint8(0), uint16(0))
	f.Add(uint64(4), uint16(130), uint16(765), uint8(0x1b), uint16(510))
	f.Fuzz(func(t *testing.T, seed uint64, bits, n uint16, mix uint8, readAt uint16) {
		width := 1 + int(bits)%8192
		size := 1 + int(n)%1024
		if width*size > 1<<21 {
			size = 1 + (1<<21)/width
		}
		kind := func(k int) int { return int(mix>>(2*(k%4))) & 3 }
		checkOnesAgainstOracle(t, onesWindow(seed, width, size, kind), int(readAt)%(size+1))
	})
}
