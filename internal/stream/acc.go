package stream

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/entropy"
	"repro/internal/metrics"
)

// ErrNoMeasurements is returned when a result is requested from an
// accumulator that has consumed nothing.
var ErrNoMeasurements = errors.New("stream: no measurements")

// WCHD accumulates the within-class Hamming distance of a measurement
// stream against a fixed reference pattern (§IV-B1). It keeps a running
// sum, maximum and count — the per-measurement series of the batch
// pipeline is never materialised. The floating-point accumulation order
// matches metrics.WithinClassHD exactly, so Mean and Max are bit-identical
// to the batch result.
type WCHD struct {
	ref   *bitvec.Vector
	sum   float64
	max   float64
	count int
}

// NewWCHD returns a WCHD accumulator against ref.
func NewWCHD(ref *bitvec.Vector) (*WCHD, error) {
	if ref == nil {
		return nil, errors.New("stream: nil reference")
	}
	return &WCHD{ref: ref}, nil
}

// Add folds one measurement.
func (a *WCHD) Add(m *bitvec.Vector) error {
	f, err := a.ref.FractionalHammingDistance(m)
	if err != nil {
		return fmt.Errorf("stream: measurement %d: %w", a.count, err)
	}
	a.addFraction(f)
	return nil
}

// addFraction folds one fractional distance.
func (a *WCHD) addFraction(f float64) {
	a.sum += f
	if f > a.max {
		a.max = f
	}
	a.count++
}

// Count returns the number of measurements consumed.
func (a *WCHD) Count() int { return a.count }

// Mean returns the mean fractional Hamming distance versus the reference.
func (a *WCHD) Mean() (float64, error) {
	if a.count == 0 {
		return 0, ErrNoMeasurements
	}
	return a.sum / float64(a.count), nil
}

// Max returns the worst per-measurement distance seen.
func (a *WCHD) Max() (float64, error) {
	if a.count == 0 {
		return 0, ErrNoMeasurements
	}
	return a.max, nil
}

// FHW accumulates the fractional Hamming weight of a measurement stream
// (§IV-A3), mirroring metrics.FractionalHW's accumulation order.
type FHW struct {
	sum   float64
	count int
}

// NewFHW returns an empty weight accumulator.
func NewFHW() *FHW { return &FHW{} }

// Add folds one measurement.
func (a *FHW) Add(m *bitvec.Vector) error {
	a.addFraction(m.FractionalHammingWeight())
	return nil
}

// addFraction folds one fractional weight.
func (a *FHW) addFraction(f float64) {
	a.sum += f
	a.count++
}

// fraction is k/n with bitvec's rounding and its 0 for an empty vector,
// so metrics fed from Device's Hamming pass keep the bits of the
// per-vector FractionalHammingDistance/FractionalHammingWeight.
func fraction(k, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(k) / float64(n)
}

// Count returns the number of measurements consumed.
func (a *FHW) Count() int { return a.count }

// Mean returns the mean fractional Hamming weight.
func (a *FHW) Mean() (float64, error) {
	if a.count == 0 {
		return 0, ErrNoMeasurements
	}
	return a.sum / float64(a.count), nil
}

// Ones accumulates per-cell one-counts — the streaming form of
// entropy.OneCounts — from which the noise min-entropy (§IV-C2) and the
// one-probability map derive. State is independent of the window size:
// one int per cell in counts plus one 8-bit lane counter per cell in
// lanes. Add never touches counts; it adds each measurement word into
// eight lane words, one per byte of cells, each holding that byte's eight
// cells as 8-bit counters. Invariant: a cell's one-count is its counts
// entry plus its lane byte, and no lane byte exceeds pending, the Adds
// since the last fold — the lanes are folded into counts (and cleared)
// after every 255th Add, so a byte never overflows, and before every
// read, so every reader sees plain exact integers.
type Ones struct {
	counts  []int       // len = cells; cap padded to whole 64-cell words
	lanes   [][8]uint64 // per measurement word: byte k of cells in lanes[wi][k]
	pending int         // Adds since the last fold, < 255
	count   int
	scratch []float64 // Probabilities / NoiseMinEntropy scratch, reused across calls
}

// laneFold is the number of Adds an 8-bit lane counter can absorb.
const laneFold = 255

// spread maps a byte of cells to a lane word holding one 0/1 counter per
// cell: bit j of the byte lands in byte j of the word.
var spread = func() (t [256]uint64) {
	for b := range t {
		for j := 0; j < 8; j++ {
			t[b] |= uint64(b>>j&1) << (8 * j)
		}
	}
	return t
}()

// NewOnes returns a one-count accumulator; the cell count is fixed by the
// first measurement.
func NewOnes() *Ones { return &Ones{} }

// Add folds one measurement.
func (a *Ones) Add(m *bitvec.Vector) error {
	if err := a.size(m); err != nil {
		return err
	}
	a.add(m.Words())
	return nil
}

// size fixes the cell count on the first measurement and rejects any
// later measurement of a different length.
func (a *Ones) size(m *bitvec.Vector) error {
	if a.counts == nil {
		words := len(m.Words())
		a.counts = make([]int, 64*words)[:m.Len()]
		a.lanes = make([][8]uint64, words)
	}
	if m.Len() != len(a.counts) {
		return fmt.Errorf("stream: measurement %d has %d bits, want %d", a.count, m.Len(), len(a.counts))
	}
	return nil
}

// add counts one measurement, given as words of an already sized
// measurement, into the lanes.
func (a *Ones) add(words []uint64) {
	lanes := a.lanes[:len(words)]
	for wi, w := range words {
		l := &lanes[wi]
		l[0] += spread[byte(w)]
		l[1] += spread[byte(w>>8)]
		l[2] += spread[byte(w>>16)]
		l[3] += spread[byte(w>>24)]
		l[4] += spread[byte(w>>32)]
		l[5] += spread[byte(w>>40)]
		l[6] += spread[byte(w>>48)]
		l[7] += spread[byte(w>>56)]
	}
	a.count++
	if a.pending++; a.pending == laneFold {
		a.fold()
	}
}

// fold moves the lane counters into counts and clears them.
func (a *Ones) fold() {
	if a.pending == 0 {
		return
	}
	counts := a.counts[:cap(a.counts)] // padding cells' lanes stay zero
	for wi := range a.lanes {
		for k, l := range a.lanes[wi] {
			c := counts[wi*64+k*8 : wi*64+k*8+8]
			for j := range c {
				c[j] += int(l >> (8 * j) & 0xff)
			}
		}
		a.lanes[wi] = [8]uint64{}
	}
	a.pending = 0
}

// oneCounts returns the exact per-cell one-counts, folding first. The
// slice is the accumulator's own and changes with the next Add.
func (a *Ones) oneCounts() []int {
	a.fold()
	return a.counts
}

// Count returns the number of measurements consumed.
func (a *Ones) Count() int { return a.count }

// Probabilities returns the empirical one-probability of every cell,
// computed exactly as entropy.OneProbabilities computes it (same
// count-times-reciprocal rounding). The returned slice is the
// accumulator's own scratch, overwritten by the next Probabilities (or
// NoiseMinEntropy) call and by nothing else; callers that keep it past
// that must copy it. Steady state allocates nothing.
func (a *Ones) Probabilities() ([]float64, error) {
	if a.count == 0 {
		return nil, ErrNoMeasurements
	}
	probs, err := entropy.ProbabilitiesFromCountsInto(a.scratch, a.oneCounts(), a.count)
	if err != nil {
		return nil, err
	}
	a.scratch = probs
	return probs, nil
}

// NoiseMinEntropy returns the window's average per-bit noise min-entropy,
// bit-identical to the entropy oracle over the streaming
// one-probabilities but folded straight from the counts
// (entropy.NoiseMinEntropyFromCountsInto: one logarithm per count value, not
// per cell).
func (a *Ones) NoiseMinEntropy() (float64, error) {
	if a.count == 0 {
		return 0, ErrNoMeasurements
	}
	h, scratch, err := entropy.NoiseMinEntropyFromCountsInto(a.scratch, a.oneCounts(), a.count)
	a.scratch = scratch
	return h, err
}

// StableRatio returns the fraction of stable cells: cells whose one-count
// is exactly 0 or exactly the measurement count. The comparison is
// count-based, in lockstep with entropy.StableCellRatio — the historical
// probability comparison missed fully-stable cells for window sizes n
// where float64(n)*(1/float64(n)) != 1 (e.g. n = 49).
func (a *Ones) StableRatio() (float64, error) {
	if a.count == 0 {
		return 0, ErrNoMeasurements
	}
	return entropy.StableCellRatio(a.oneCounts(), a.count)
}

// StableMask returns a fresh bitmap marking the stable cells — cells
// whose one-count is exactly 0 or exactly the measurement count, the same
// count-based classification as StableRatio. Callers on a per-window hot
// path (the condition sweep's cross-corner harvest) use StableMaskInto
// with a reused mask instead; this form allocates per call.
func (a *Ones) StableMask() (*bitvec.Vector, error) {
	if a.count == 0 {
		return nil, ErrNoMeasurements
	}
	mask := bitvec.New(len(a.counts))
	if err := a.StableMaskInto(mask); err != nil {
		return nil, err
	}
	return mask, nil
}

// StableMaskInto writes the stable-cell bitmap into dst, which must
// have one bit per accumulated cell — StableMask without the per-call
// allocation, packed a word at a time. Every bit of dst is overwritten.
func (a *Ones) StableMaskInto(dst *bitvec.Vector) error {
	if a.count == 0 {
		return ErrNoMeasurements
	}
	if dst.Len() != len(a.counts) {
		return fmt.Errorf("stream: mask has %d bits, want %d", dst.Len(), len(a.counts))
	}
	var word uint64
	var nbits uint
	wi := 0
	for _, c := range a.oneCounts() {
		if c == 0 || c == a.count {
			word |= 1 << nbits
		}
		nbits++
		if nbits == 64 {
			dst.SetWord(wi, word)
			wi++
			word, nbits = 0, 0
		}
	}
	if nbits > 0 {
		dst.SetWord(wi, word)
	}
	return nil
}

// Flips tracks, per cell, whether the cell ever changed value across the
// stream: a one-word-per-64-cells bitmap updated with one XOR-OR pass per
// measurement. A cell is stable over a window exactly when it never flips,
// so the bitmap yields the stable-cell tally (§IV-C1) as an exact integer
// count. Since the stable-cell oracle became count-based (a cell is stable
// iff its one-count is 0 or n, which holds iff it never flips),
// Flips.StableRatio and Ones.StableRatio agree exactly for every window
// size; Flips additionally locates the flipping cells.
type Flips struct {
	prev    *bitvec.Vector
	changed *bitvec.Vector
	count   int
}

// NewFlips returns an empty flip tracker.
func NewFlips() *Flips { return &Flips{} }

// Add folds one measurement.
func (a *Flips) Add(m *bitvec.Vector) error {
	if a.prev == nil {
		a.prev = m.Clone()
		a.changed = bitvec.New(m.Len())
		a.count++
		return nil
	}
	if err := a.changed.OrDiffInPlace(m, a.prev); err != nil {
		return fmt.Errorf("stream: measurement %d: %w", a.count, err)
	}
	if err := a.prev.CopyFrom(m); err != nil {
		return err
	}
	a.count++
	return nil
}

// Count returns the number of measurements consumed.
func (a *Flips) Count() int { return a.count }

// Changed returns the bitmap of cells that flipped at least once. The
// returned vector is owned by the accumulator.
func (a *Flips) Changed() (*bitvec.Vector, error) {
	if a.count == 0 {
		return nil, ErrNoMeasurements
	}
	return a.changed, nil
}

// StableRatio returns the fraction of cells that never flipped.
func (a *Flips) StableRatio() (float64, error) {
	if a.count == 0 {
		return 0, ErrNoMeasurements
	}
	n := a.changed.Len()
	if n == 0 {
		return 0, ErrNoMeasurements
	}
	return float64(n-a.changed.HammingWeight()) / float64(n), nil
}

// DeviceResult carries every per-device window metric of Table I.
type DeviceResult struct {
	WCHDMean    float64 // mean FHD vs the device's reference
	WCHDMax     float64 // worst single measurement
	FHW         float64 // mean fractional Hamming weight
	NoiseHmin   float64 // empirical noise min-entropy
	StableRatio float64 // fraction of never-flipping cells
	Count       int     // measurements consumed
}

// Device is the composite per-device window accumulator: a reference
// pattern, the window's first pattern, and the WCHD/FHW/Ones
// accumulators. Add reads the measurement's words once for both Hamming
// counts and once more for the one-count lanes. Total state is O(array
// size).
type Device struct {
	ref   *bitvec.Vector // month-0 reference; adopted from the first measurement when nil
	first *bitvec.Vector // first measurement of THIS window (BCHD/PUF input)
	wchd  *WCHD
	fhw   *FHW
	ones  *Ones
}

// NewDevice returns a device accumulator. ref is the device's enrollment
// reference; pass nil to adopt the first measurement of the stream as the
// reference (the month-0 convention of §IV-B1).
func NewDevice(ref *bitvec.Vector) *Device {
	d := &Device{fhw: NewFHW(), ones: NewOnes()}
	if ref != nil {
		d.ref = ref
		d.wchd, _ = NewWCHD(ref)
	}
	return d
}

// Add folds one measurement. The vector is not retained (the first
// measurement and an adopted reference are cloned).
func (d *Device) Add(m *bitvec.Vector) error {
	if d.first == nil {
		d.first = m.Clone()
		if d.ref == nil {
			d.ref = d.first
			var err error
			if d.wchd, err = NewWCHD(d.ref); err != nil {
				return err
			}
		}
	}
	n := m.Len()
	if n != d.ref.Len() {
		return fmt.Errorf("stream: measurement %d: %w: %d vs %d bits", d.wchd.count, bitvec.ErrLengthMismatch, d.ref.Len(), n)
	}
	if err := d.ones.size(m); err != nil {
		return err
	}
	// The Hamming weight and the distance to the reference in one pass:
	// the same integers bitvec counts, so WCHD/FHW floats do not move.
	words, ref := m.Words(), d.ref.Words()
	hw, hd := 0, 0
	for wi, w := range words {
		hw += bits.OnesCount64(w)
		hd += bits.OnesCount64(w ^ ref[wi])
	}
	d.wchd.addFraction(fraction(hd, n))
	d.fhw.addFraction(fraction(hw, n))
	d.ones.add(words)
	return nil
}

// Count returns the number of measurements consumed.
func (d *Device) Count() int { return d.fhw.Count() }

// Ref returns the reference pattern in use (nil before the first
// measurement when none was supplied).
func (d *Device) Ref() *bitvec.Vector { return d.ref }

// First returns the first measurement of the window (the BCHD/PUF-entropy
// input of §IV-B2), or nil before any measurement.
func (d *Device) First() *bitvec.Vector { return d.first }

// StableMask returns a fresh bitmap of the window's stable cells (see
// Ones.StableMask).
func (d *Device) StableMask() (*bitvec.Vector, error) { return d.ones.StableMask() }

// StableMaskInto writes the window's stable-cell bitmap into dst
// without allocating (see Ones.StableMaskInto).
func (d *Device) StableMaskInto(dst *bitvec.Vector) error { return d.ones.StableMaskInto(dst) }

// Result finalises the window metrics.
func (d *Device) Result() (DeviceResult, error) {
	if d.Count() == 0 {
		return DeviceResult{}, ErrNoMeasurements
	}
	mean, err := d.wchd.Mean()
	if err != nil {
		return DeviceResult{}, err
	}
	max, err := d.wchd.Max()
	if err != nil {
		return DeviceResult{}, err
	}
	fhw, err := d.fhw.Mean()
	if err != nil {
		return DeviceResult{}, err
	}
	noise, err := d.ones.NoiseMinEntropy()
	if err != nil {
		return DeviceResult{}, err
	}
	stable, err := d.ones.StableRatio()
	if err != nil {
		return DeviceResult{}, err
	}
	return DeviceResult{
		WCHDMean:    mean,
		WCHDMax:     max,
		FHW:         fhw,
		NoiseHmin:   noise,
		StableRatio: stable,
		Count:       d.Count(),
	}, nil
}

// CrossResult carries the cross-device uniqueness metrics of one window.
type CrossResult struct {
	BCHDMean float64
	BCHDMin  float64
	BCHDMax  float64
	PUFHmin  float64
}

// Cross accumulates the cross-device metrics: between-class Hamming
// distance and PUF min-entropy over one pattern per device (§IV-B2,
// §IV-B4). State is O(devices × array size) — one retained pattern per
// device, independent of the window size; the final pairwise fold
// delegates to the metrics/entropy oracles so the summation order (and
// hence the result bits) matches the batch pipeline exactly.
type Cross struct {
	firsts []*bitvec.Vector
}

// NewCross returns an empty cross-device accumulator.
func NewCross() *Cross { return &Cross{} }

// Add records one device's window-first pattern. The vector is retained;
// pass an owned copy (Device.First already returns one).
func (c *Cross) Add(first *bitvec.Vector) error {
	if first == nil {
		return errors.New("stream: nil pattern")
	}
	c.firsts = append(c.firsts, first)
	return nil
}

// Devices returns the number of patterns recorded.
func (c *Cross) Devices() int { return len(c.firsts) }

// crossPairwiseCap is the largest population evaluated with the exact
// all-pairs BCHD fold. Above it the O(devices²) pair walk (and its
// Pairwise slice) would dominate a fleet-screening campaign — 50k devices
// is 1.25 billion pairs — so Result switches to the column-count path:
// the exact same mean via per-bit one-counts in O(devices × bits), with
// min/max over the deterministic adjacent-pair sample. Every historical
// campaign size sits far below the cap, so published results keep their
// bits.
const crossPairwiseCap = 2048

// Result finalises BCHD and PUF min-entropy. It needs >= 2 devices.
func (c *Cross) Result() (CrossResult, error) {
	if len(c.firsts) > crossPairwiseCap {
		return c.resultLarge()
	}
	bc, err := metrics.BetweenClassHD(c.firsts)
	if err != nil {
		return CrossResult{}, err
	}
	puf, err := entropy.PUFMinEntropy(c.firsts)
	if err != nil {
		return CrossResult{}, err
	}
	return CrossResult{BCHDMean: bc.Mean, BCHDMin: bc.Min, BCHDMax: bc.Max, PUFHmin: puf}, nil
}

// resultLarge is the fleet-scale cross fold. The pairwise BCHD mean has a
// closed form over per-bit one-counts: a bit position where c of n devices
// read 1 disagrees in exactly c·(n−c) of the n·(n−1)/2 pairs, so
// mean = Σ_pos c(n−c) / (pairs · bits) — identical in exact arithmetic to
// the pair walk, summed in a fixed order (positions ascending) so any two
// runs of the same population agree bit-for-bit. Min/Max, which have no
// columnar form, come from the adjacent-pair sample (i, i+1) — n−1
// deterministic pairs in device order, which all execution layouts share
// because the engine folds devices in index order.
func (c *Cross) resultLarge() (CrossResult, error) {
	n := len(c.firsts)
	ones := NewOnes()
	for _, v := range c.firsts {
		if err := ones.Add(v); err != nil {
			return CrossResult{}, err
		}
	}
	counts := ones.oneCounts()
	nbits := len(counts)
	var disagree float64
	for _, cnt := range counts {
		disagree += float64(cnt) * float64(n-cnt)
	}
	pairs := float64(n) * float64(n-1) / 2
	mean := disagree / (pairs * float64(nbits))

	min, max := 1.0, 0.0
	for i := 0; i+1 < n; i++ {
		f, err := c.firsts[i].FractionalHammingDistance(c.firsts[i+1])
		if err != nil {
			return CrossResult{}, fmt.Errorf("stream: cross pair (%d,%d): %w", i, i+1, err)
		}
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}

	// PUF min-entropy's probability estimate is c/n per position — reuse
	// the counts instead of re-walking the patterns.
	var hmin float64
	for _, cnt := range counts {
		p := float64(cnt) / float64(n)
		m := p
		if 1-p > m {
			m = 1 - p
		}
		if m < 1 {
			hmin += -math.Log2(m)
		}
	}
	hmin /= float64(nbits)
	return CrossResult{BCHDMean: mean, BCHDMin: min, BCHDMax: max, PUFHmin: hmin}, nil
}
