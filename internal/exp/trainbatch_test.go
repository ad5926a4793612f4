package exp

import (
	"math"
	"testing"

	"chameleon/internal/cl"
	"chameleon/internal/data"
	"chameleon/internal/parallel"
)

// perSampleAccAll is every method's Acc_all on the test-scale core50 stream
// (seed 1, buffer 40, batch 10) when heads trained one sample at a time,
// measured on commit e827740d52ac2538986ad16fb27b5a5a1711da9c with its
// per-sample training path selected — the last commit that had a per-sample
// fp32 training path. Each method measured the same value at workers 1 and 8.
var perSampleAccAll = map[string]float64{
	"joint":     0.65,
	"finetune":  0.35,
	"ewcpp":     0.36,
	"lwf":       0.36,
	"slda":      0.76,
	"gss":       0.51,
	"er":        0.48,
	"der":       0.52,
	"latent":    0.49,
	"chameleon": 0.62,
}

// TestBatchTrainAccuracyParityAllMethods is the end-to-end acceptance gate for
// the batched training core: every method family — core Chameleon plus the
// nine baselines — must land within ±0.5 accuracy points of its recorded
// per-sample accuracy on a full Table-I-config stream, at worker counts 1 and
// 8. The fp32 batched forward reassociates differently from the per-sample
// GEMV, so exact weights are not expected; decision-level parity is.
func TestBatchTrainAccuracyParityAllMethods(t *testing.T) {
	if testing.Short() {
		t.Skip("batched-training parity runs full streams per method; run without -short")
	}
	sc := TestScale()
	set, err := BuildLatentSet("core50", sc, DefaultCacheDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer parallel.SetWorkers(0)
	opts := data.StreamOptions{BatchSize: 10}
	for _, method := range Methods() {
		want, ok := perSampleAccAll[method]
		if !ok {
			t.Fatalf("%s: no recorded per-sample accuracy", method)
		}
		spec := MethodSpec{Name: method, Buffer: 40, ST: sc.ChameleonST}
		for _, w := range []int{1, 8} {
			parallel.SetWorkers(w)
			l, err := NewLearner(spec, set, sc, 1)
			if err != nil {
				t.Fatal(err)
			}
			got := cl.RunOnline(l, set.Stream(1, opts), set.Test).AccAll
			diff := math.Abs(got - want)
			t.Logf("%s workers=%d: batched %.4f, per-sample %.4f (|Δ| %.4f)", method, w, got, want, diff)
			if diff > 0.005 {
				t.Errorf("%s workers=%d: batched accuracy %.4f vs per-sample %.4f differ by %.4f (> 0.5 pt)",
					method, w, got, want, diff)
			}
		}
	}
}

// TestRef64BatchedFullStreamBitIdentity is the reference-tier acceptance gate:
// the fp64 batched path must be bit-identical to the fp64 per-sample path over
// a complete Table-I-config stream — same final weights, same accuracy.
func TestRef64BatchedFullStreamBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("fp64 bit-identity runs full streams; run without -short")
	}
	sc := TestScale()
	set, err := BuildLatentSet("core50", sc, DefaultCacheDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := MethodSpec{Name: "finetune"}
	opts := data.StreamOptions{BatchSize: 10}
	run := func(batched bool) (*cl.Ref64, float64) {
		l, err := NewRef64Learner(spec, set, sc, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref := l.(*cl.Ref64)
		ref.Batched = batched
		return ref, cl.RunOnline(ref, set.Stream(1, opts), set.Test).AccAll
	}
	serial, accSerial := run(false)
	batched, accBatched := run(true)
	if accSerial != accBatched {
		t.Errorf("fp64 accuracies diverge: per-sample %.6f vs batched %.6f", accSerial, accBatched)
	}
	ps, pb := serial.Net.Params(), batched.Net.Params()
	for i := range ps {
		ds, db := ps[i].Data.Data(), pb[i].Data.Data()
		for j := range ds {
			if ds[j] != db[j] {
				t.Fatalf("fp64 param %q[%d] diverges: %v vs %v", ps[i].Name, j, ds[j], db[j])
			}
		}
	}
}
