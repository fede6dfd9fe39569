package cnn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"elevprivacy/internal/imagerep"
)

// The serial-bits pin. These digests were recorded at GOMAXPROCS=1 with the
// direct per-sample convolution trainer this package used before its
// band-tiled kernel: (a) the trained parameter vector and (b) the
// Probabilities of every training image, both for trainDeterminismModel.
// testdata/serial_model.bin is that trainer's saved model. Matching them
// pins the current kernel to the retired serial trainer bit for bit.
//
// They were recorded on amd64 at the default GOAMD64=v1, where the compiler
// fuses no multiply-add; other targets may fuse the a*b+c steps of
// linalg's Dot, Axpy and Adam and round differently, so only amd64
// checks the digests.
const (
	serialParamsSHA256 = "25dd6802522ce9cda93b0626266e37f782989f3f530d8fcc93b65f16444c03e5"
	serialProbsSHA256  = "290ace8039e764aab0d4c6e7b552029b72102e0c2a340ee4c9d26895ab7b0e14"
)

// determinismData is 21 images of 3 classes: with BatchSize 8 every epoch
// ends on a 5-image tail minibatch.
func determinismData() ([]*imagerep.Image, []int) {
	return syntheticImages(3, 7, 4)
}

// trainDeterminismModel exercises every training path whose reduction
// order could follow the worker count: class-weighted loss, a tail
// minibatch, and a warm-start TrainEpochs round after SetLearningRate.
func trainDeterminismModel(t testing.TB, images []*imagerep.Image, labels []int) *CNN {
	t.Helper()
	cfg := fastConfig(3)
	cfg.BatchSize = 8
	cfg.ClassWeights = []float64{0.7, 1.3, 1.1}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.TrainEpochs(images, labels, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLearningRate(4e-4); err != nil {
		t.Fatal(err)
	}
	if err := c.TrainEpochs(images, labels, 2); err != nil {
		t.Fatal(err)
	}
	return c
}

const checkPin = runtime.GOARCH == "amd64"

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

// probsDigest returns bitsDigest over the Probabilities of every image.
func probsDigest(t testing.TB, c *CNN, images []*imagerep.Image) string {
	t.Helper()
	var all [][]float64
	for _, im := range images {
		p, err := c.Probabilities(im)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, p)
	}
	return bitsDigest(all...)
}

// TestDeterministicTrainingAcrossParallelism trains the same model at
// GOMAXPROCS 1 through 4 and requires every parameter to be bitwise equal,
// and equal to the serial-bits pin.
func TestDeterministicTrainingAcrossParallelism(t *testing.T) {
	images, labels := determinismData()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var serial []float64
	for procs := 1; procs <= 4; procs++ {
		runtime.GOMAXPROCS(procs)
		c := trainDeterminismModel(t, images, labels)
		if procs == 1 {
			serial = c.params
			if !checkPin {
				continue
			}
			if got := bitsDigest(c.params); got != serialParamsSHA256 {
				t.Errorf("GOMAXPROCS=1 params digest %s, pinned %s", got, serialParamsSHA256)
			}
			if got := probsDigest(t, c, images); got != serialProbsSHA256 {
				t.Errorf("GOMAXPROCS=1 probabilities digest %s, pinned %s", got, serialProbsSHA256)
			}
			continue
		}
		var diff int
		for i := range serial {
			if math.Float64bits(c.params[i]) != math.Float64bits(serial[i]) {
				diff++
			}
		}
		if diff > 0 {
			t.Errorf("GOMAXPROCS=%d: %d of %d parameters differ from GOMAXPROCS=1", procs, diff, len(serial))
		}
	}
}

// TestLoadsSerialTrainerModel loads the model the retired serial trainer
// saved and requires its parameters and predictions to match the pin.
func TestLoadsSerialTrainerModel(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "serial_model.bin"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got := bitsDigest(c.params); got != serialParamsSHA256 {
		t.Errorf("loaded params digest %s, pinned %s", got, serialParamsSHA256)
	}
	images, _ := determinismData()
	if checkPin {
		if got := probsDigest(t, c, images); got != serialProbsSHA256 {
			t.Errorf("loaded model probabilities digest %s, pinned %s", got, serialProbsSHA256)
		}
	}
	// Saving it again reproduces the file byte for byte.
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Error("re-saved model differs from testdata/serial_model.bin")
	}
}
