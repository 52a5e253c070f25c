package silicon

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/aging"
	"repro/internal/rng"
)

// TestNewProfileDefaults: a profile built with no options is the paper's
// device under another name — same geometry, operating point, calibrated
// mismatch and kinetics as the registered ATmega32u4.
func TestNewProfileDefaults(t *testing.T) {
	p, err := NewProfile("plain")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "plain" || p.Model != "" {
		t.Fatalf("name/model = %q/%q", p.Name, p.Model)
	}
	if p.SRAMBytes != ref.SRAMBytes || p.ReadWindowBytes != ref.ReadWindowBytes {
		t.Fatalf("geometry %d/%d B, paper device %d/%d B", p.SRAMBytes, p.ReadWindowBytes, ref.SRAMBytes, ref.ReadWindowBytes)
	}
	if p.Lambda != ref.Lambda || p.Mu != ref.Mu || p.Kinetics != ref.Kinetics || p.AgingDispersion != ref.AgingDispersion {
		t.Fatalf("calibrated model differs from the paper device:\n%+v\n%+v", p, ref)
	}
	if _, err := NewProfile(""); err == nil {
		t.Fatal("NewProfile accepted an empty name")
	}
}

// TestNewProfileOptions: every option sets exactly its fields, and the
// built profile is validated — an option that makes it inconsistent
// fails construction.
func TestNewProfileOptions(t *testing.T) {
	k := aging.Kinetics{
		Amplitude: 0.3, Exponent: 0.2, NBTIShare: 0.7, DutyOn: 0.9, Recovery: 0.2,
		TempC: 40, Voltage: 1.2, RefTempC: 40, RefVoltage: 1.2,
		ActivationEnergyEV: 0.15, VoltageExponent: 2,
	}
	p, err := NewProfile("custom",
		WithTechnology("test node"),
		WithGeometry(512, 64),
		WithOperatingPoint(1.2, 40),
		WithMismatch(2.5, 0.4),
		WithSpread(0.1, 0.05),
		WithKinetics(k),
		WithAgingDispersion(0.02),
		WithCellModel(ModelCorrelated),
		WithLineStructure(128, 0.25),
		WithNoiseRel(1.3),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := DeviceProfile{
		Name: "custom", Technology: "test node",
		SRAMBytes: 512, ReadWindowBytes: 64,
		OperatingVoltage: 1.2, NominalTempC: 40,
		Lambda: 2.5, Mu: 0.4,
		LambdaRelJitter: 0.1, BiasZJitter: 0.05,
		Kinetics: k, AgingDispersion: 0.02,
		Model: ModelCorrelated, LineBits: 128, LineCorr: 0.25, NoiseRel: 1.3,
	}
	if p != want {
		t.Fatalf("profile\n%+v\nwant\n%+v", p, want)
	}
	if p.Cells() != 4096 || p.ReadWindowBits() != 512 {
		t.Fatalf("cells/window bits = %d/%d", p.Cells(), p.ReadWindowBits())
	}
	// NoiseRel folds onto the condition scale, which is 1 at the
	// kinetics' reference point.
	if got := p.NoiseScale(); got != 1.3 {
		t.Fatalf("NoiseScale = %v, want 1.3", got)
	}

	for name, opts := range map[string][]ProfileOption{
		"window larger than array": {WithGeometry(64, 128)},
		"line structure on iid":    {WithLineStructure(64, 0.3)},
		"line longer than array":   {WithCellModel(ModelCorrelated), WithGeometry(8, 8), WithLineStructure(65, 0.3)},
		"negative line":            {WithCellModel(ModelCorrelated), WithLineStructure(-1, 0.3)},
		"line correlation 1":       {WithCellModel(ModelCorrelated), WithLineStructure(64, 1)},
		"unknown model":            {WithCellModel("no-such-model")},
		"negative noise":           {WithNoiseRel(-1)},
		"zero lambda":              {WithMismatch(0, 0)},
	} {
		if _, err := NewProfile("bad", opts...); err == nil {
			t.Errorf("%s: NewProfile accepted an invalid profile", name)
		}
	}
}

// TestProfileAtScenarios: the nominal scenario is the identity (exact
// kinetics, acceleration and noise scale 1), a hotter one accelerates
// aging and raises the noise, and a non-physical one is refused.
func TestProfileAtScenarios(t *testing.T) {
	for _, name := range []string{"atmega32u4", "fleetnode-2kb", "cachearray-64kb"} {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		nom := p.NominalScenario()
		if nom.TempC != p.NominalTempC || nom.Voltage != p.OperatingVoltage {
			t.Fatalf("%s: nominal scenario %+v", name, nom)
		}
		same, err := p.At(nom)
		if err != nil {
			t.Fatal(err)
		}
		if same != p {
			t.Fatalf("%s: At(nominal) changed the profile", name)
		}
		if af := same.Kinetics.AccelerationFactor(); af != 1 {
			t.Fatalf("%s: nominal acceleration factor %v", name, af)
		}
		hot, err := p.At(aging.Scenario{Name: "hot", TempC: p.NominalTempC + 60, Voltage: p.OperatingVoltage})
		if err != nil {
			t.Fatal(err)
		}
		if hot.Kinetics.AccelerationFactor() <= 1 || hot.NoiseScale() <= p.NoiseScale() {
			t.Fatalf("%s: hot scenario AF %v, noise %v vs nominal %v",
				name, hot.Kinetics.AccelerationFactor(), hot.NoiseScale(), p.NoiseScale())
		}
		if _, err := p.At(aging.Scenario{Name: "frozen", TempC: -300, Voltage: 1}); err == nil {
			t.Fatalf("%s: At accepted a temperature below absolute zero", name)
		}
	}
}

// TestNoiseScaleUnknownModelFallsBack: NoiseScale stays total for a
// profile whose model is not registered, falling back to the condition
// scale.
func TestNoiseScaleUnknownModelFallsBack(t *testing.T) {
	p, err := ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	p.Model = "no-such-model"
	p.NoiseRel = 2
	if got, want := p.NoiseScale(), p.Kinetics.NoiseScale(); got != want {
		t.Fatalf("NoiseScale = %v, want the condition scale %v", got, want)
	}
}

// TestModelNames lists the built-in models, sorted, each resolvable.
func TestModelNames(t *testing.T) {
	names := ModelNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("ModelNames not sorted: %v", names)
	}
	for _, want := range []string{ModelIID, ModelCorrelated} {
		i := sort.SearchStrings(names, want)
		if i == len(names) || names[i] != want {
			t.Fatalf("ModelNames %v lacks %q", names, want)
		}
		m, err := LookupModel(want)
		if err != nil || m.ModelName() != want {
			t.Fatalf("LookupModel(%q) = %v, %v", want, m, err)
		}
	}
}

// TestCacheArrayProfiles: the registered server-cache family is valid,
// correlated, 64-byte-lined, and reads the same 1 KiB window as the
// embedded parts.
func TestCacheArrayProfiles(t *testing.T) {
	for name, bytes := range map[string]int{"cachearray-64kb": 64 << 10, "cachearray-2mb": 2 << 20} {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.SRAMBytes != bytes || p.ReadWindowBytes != 1024 || p.Model != ModelCorrelated || p.LineBits != 512 {
			t.Fatalf("%s: %+v", name, p)
		}
		if !strings.HasPrefix(p.Name, "CacheArray-") {
			t.Fatalf("%s: display name %q", name, p.Name)
		}
		kin, disp := mustModel(t, p).AgingResponse(p)
		if kin != p.Kinetics || disp != p.AgingDispersion {
			t.Fatalf("%s: aging response differs from the profile", name)
		}
		if got := mustModel(t, p).NoiseScale(p); got != 1.3 {
			t.Fatalf("%s: nominal noise scale %v, want 1.3", name, got)
		}
	}
}

func mustModel(t *testing.T, p DeviceProfile) CellModel {
	t.Helper()
	m, err := p.CellModel()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSampleSkewPrefixContract pins the CellModel prefix contract both
// built-in models meet: a fill of the first n cells equals the first n
// values of the full-array fill from the same stream, bit for bit,
// whatever n is — for the correlated model also with the cut inside a
// line and with LineBits 0 (one line spanning the array).
func TestSampleSkewPrefixContract(t *testing.T) {
	build := func(name string, opts ...ProfileOption) DeviceProfile {
		p, err := NewProfile(name, append([]ProfileOption{WithGeometry(64, 16)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	profiles := []DeviceProfile{
		build("prefix-iid"),
		build("prefix-corr96", WithCellModel(ModelCorrelated), WithLineStructure(96, 0.3)),
		build("prefix-corr0", WithCellModel(ModelCorrelated), WithLineStructure(0, 0.3)),
	}
	for _, p := range profiles {
		m := mustModel(t, p)
		d := m.SampleParams(p, rng.New(5))
		fullStatic := make([]float64, p.Cells())
		fullGamma := make([]float64, p.Cells())
		m.SampleSkew(p, d, rng.New(9), fullStatic, fullGamma)
		for _, n := range []int{1, 2, 95, 96, 100, p.ReadWindowBits(), p.Cells() - 1, p.Cells()} {
			static := make([]float64, n)
			gamma := make([]float64, n)
			m.SampleSkew(p, d, rng.New(9), static, gamma)
			for i := 0; i < n; i++ {
				if math.Float64bits(static[i]) != math.Float64bits(fullStatic[i]) ||
					math.Float64bits(gamma[i]) != math.Float64bits(fullGamma[i]) {
					t.Fatalf("%s n=%d cell %d: (%v, %v), full fill (%v, %v)",
						p.Name, n, i, static[i], gamma[i], fullStatic[i], fullGamma[i])
				}
			}
		}
	}
}
