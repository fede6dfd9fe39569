package mlp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"elevprivacy/internal/ml/linalg"
)

// The per-sample pin. These digests were recorded by training legacyMLP —
// the frozen replica of the retired one-sample-at-a-time trainer that the
// old training-path benchmark command carried, deleted once this pin took
// over its parity check — on pinCorpus with pinConfig: (a) the trained
// parameter vector and (b) the Probabilities of every training row, read
// back through legacyMLP's own forward pass. Both Fit and FitSparse must
// reproduce them, which pins the batched and CSR trainers to the
// per-sample trainer bit for bit.
//
// They were recorded on amd64 at the default GOAMD64=v1, where the compiler
// fuses no multiply-add; other targets may fuse the a*b+c steps of
// linalg's Dot, Axpy and Adam and round differently, so only amd64
// checks the digests.
const (
	perSampleParamsSHA256 = "ccba00d9cdfbe45d6521ea1cde1cc3846f813ca204a568c2ffd87bc2b92172f6"
	perSampleProbsSHA256  = "f41bb2dae109b3f87e95211bc7fcdb8e5500d0c2f8f640e68406d8c10dc195ec"
)

// pinCorpus is 33 samples of 3 classes in 10 columns, 8 of them all zero:
// with BatchSize 8 every epoch ends on a 1-sample tail minibatch.
func pinCorpus() ([][]float64, []int) {
	raw, y := blobs([][]float64{{0, 0}, {3, 1}, {1, 3}}, 11, 0.6, 41)
	return padSparse(raw, 10), y
}

func pinConfig() Config {
	cfg := DefaultConfig(3)
	cfg.Hidden = 16
	cfg.Epochs = 4
	cfg.BatchSize = 8
	cfg.Seed = 9
	return cfg
}

// bitsDigest returns the hex SHA-256 of the little-endian IEEE-754 bits of
// every value in order.
func bitsDigest(vecs ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vecs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFitMatchesPerSamplePin trains pinConfig on pinCorpus through Fit and
// FitSparse and requires both to reproduce the per-sample trainer's digests.
func TestFitMatchesPerSamplePin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64 without fused multiply-add")
	}
	x, y := pinCorpus()
	xm, err := linalg.FromRows(x)
	if err != nil {
		t.Fatal(err)
	}
	fits := map[string]func(*MLP) error{
		"Fit":       func(m *MLP) error { return m.Fit(x, y) },
		"FitSparse": func(m *MLP) error { return m.FitSparse(linalg.SparseFromDense(xm), y) },
	}
	for name, fit := range fits {
		m, err := New(pinConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := fit(m); err != nil {
			t.Fatal(err)
		}
		if got := bitsDigest(m.params); got != perSampleParamsSHA256 {
			t.Errorf("%s: params digest %s, pinned %s", name, got, perSampleParamsSHA256)
		}
		probs := make([][]float64, len(x))
		for i, row := range x {
			if probs[i], err = m.Probabilities(row); err != nil {
				t.Fatal(err)
			}
		}
		if got := bitsDigest(probs...); got != perSampleProbsSHA256 {
			t.Errorf("%s: probabilities digest %s, pinned %s", name, got, perSampleProbsSHA256)
		}
	}
}
