package workload_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"paco/internal/scenario"
	"paco/internal/workload"
)

// digestInstructions is how many goodpath instructions a stream digest
// covers.
const digestInstructions = 100_000

// streamDigest hashes every field of the walker's first n instructions,
// then its per-branch statistics and per-kind counts, with SHA-256.
func streamDigest(t testing.TB, spec *workload.Spec, n int) string {
	t.Helper()
	w, err := workload.NewWalker(spec)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b []byte
	for i := 0; i < n; i++ {
		ins := w.Next()
		b = b[:0]
		b = binary.LittleEndian.AppendUint64(b, ins.PC)
		b = append(b, byte(ins.Kind))
		if ins.Taken {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.LittleEndian.AppendUint64(b, ins.NextPC)
		b = binary.LittleEndian.AppendUint64(b, ins.AltPC)
		b = binary.LittleEndian.AppendUint64(b, ins.Addr)
		b = binary.LittleEndian.AppendUint64(b, uint64(ins.Dep1))
		b = binary.LittleEndian.AppendUint64(b, uint64(ins.Dep2))
		b = binary.LittleEndian.AppendUint64(b, ins.Lat)
		b = binary.LittleEndian.AppendUint64(b, uint64(ins.StaticID))
		h.Write(b)
	}
	for _, bs := range w.BranchStats() {
		b = b[:0]
		b = binary.LittleEndian.AppendUint64(b, uint64(bs.ID))
		b = append(b, byte(bs.Class))
		b = binary.LittleEndian.AppendUint64(b, bs.Executed)
		b = binary.LittleEndian.AppendUint64(b, bs.Taken)
		h.Write(b)
	}
	for k := workload.KindALU; k <= workload.KindIndirect; k++ {
		h.Write(binary.LittleEndian.AppendUint64(nil, w.KindCount(k)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestScenarios are the scenario-compiled specs the digests pin
// besides the registry: a multi-phase family, and a family with
// mispredict storms switched on by an override.
func digestScenarios(t testing.TB) map[string]*workload.Spec {
	t.Helper()
	enter, exit, flip := 0.002, 0.05, 0.4
	docs := map[string]scenario.Scenario{
		"server-3-phases": {Family: "server", Seed: 41, Params: map[string]float64{"phases": 3, "blocks": 2000, "phase_insns": 20_000}},
		"pointer-chase-storms": {Family: "pointer-chase", Seed: 42, Ops: []scenario.Op{{Override: &scenario.OverrideOp{
			StormEnter: &enter, StormExit: &exit, StormFlip: &flip,
		}}}},
	}
	out := make(map[string]*workload.Spec, len(docs))
	for name, sc := range docs {
		spec, err := sc.Compile()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = spec
	}
	return out
}

// wantStreamDigests are the SHA-256 stream digests of the first
// digestInstructions instructions of every registry model and of the
// digestScenarios specs.
var wantStreamDigests = map[string]string{
	"bzip2":                "4cbbdb420055bafa1dcc3758413a94f072356da2412375bbb4c1e6d65253c286",
	"crafty":               "9943736e275ee74c99ff085ca6f552757344c1b1521d189d556b5f0014460817",
	"gcc":                  "889416a11afecd757dda782fec6054e081bbcd5477882e6f2a5f1044ef5915c8",
	"gap":                  "9ee171cd6b95511ec4336b7f4fb174cf54a992ee02fdebd10cf129363e7945cf",
	"gzip":                 "1caf01debf71115bdf45baf01a04eccc491cb708c0bfe9796e1a5f43dd15d0a1",
	"mcf":                  "4acf52840981581e54dd150a074f52656d82a45c2142cd399ff700fe78456180",
	"parser":               "e608c961029e002e6de7731b4f7223fee791448ad85b5101ed680a898d851af9",
	"perlbmk":              "11579d6b7528939880afb2abdf3599926100d71f291b870f166169fa4d2d8140",
	"twolf":                "223637276f0543eadb6fba4241325d6b6fa2f656b21530becd8c66de9feba3bc",
	"vortex":               "af0b7601466ffe627e46984f663e0852c9c5d2527a99fdaf8d49a266847e6e98",
	"vprPlace":             "981c9282b45839fd551efcfa301c9e30781163e3c7ab9bb58ab78638e8181509",
	"vprRoute":             "3b7a076d791f8a3041e731b197a33f5c34f6e3b881c9e8743a66fd048570299a",
	"server-3-phases":      "ed949e6b3eae1455afeb78b20e61547bfc25827e54a003214a5bab99063c2f73",
	"pointer-chase-storms": "decbfb0cad59e6ed091f352a4bfdce777be5c15f3fee376e290ee3097f80689d",
}

// TestWalkerStreamDigests pins every goodpath stream bit for bit: any
// change to program construction, the walk, the outcome generators or
// the RNG draw order shows up as a digest mismatch.
func TestWalkerStreamDigests(t *testing.T) {
	specs := digestScenarios(t)
	for _, name := range workload.BenchmarkNames {
		specs[name] = workload.MustBenchmark(name)
	}
	if len(specs) != len(wantStreamDigests) {
		t.Errorf("%d specs, %d committed digests", len(specs), len(wantStreamDigests))
	}
	for name, spec := range specs {
		if got := streamDigest(t, spec, digestInstructions); got != wantStreamDigests[name] {
			t.Errorf("%s: stream digest %s, want %s", name, got, wantStreamDigests[name])
		}
	}
}
