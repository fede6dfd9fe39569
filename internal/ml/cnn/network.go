package cnn

import (
	"runtime"
	"sync"
	"sync/atomic"

	"elevprivacy/internal/imagerep"
	"elevprivacy/internal/ml/linalg"
)

// activations is one image's forward state: the padded inputs of both
// convolutions (x1 doubles as the pool1 output), the pool winners, the FC
// input and the class probabilities.
type activations struct {
	x0, x1     []float64
	arg1, arg2 []int32
	feat       []float64
	probs      []float64
}

// workspace is one goroutine's scratch: the im2col band and its conv
// outputs, plus the two backward buffers training needs.
type workspace struct {
	band, out []float64
	dFeat     []float64 // gradient at the FC input
	dx1       []float64 // gradient at conv2's padded input
}

// sample is one minibatch slot: its forward state plus what the parallel
// weight-gradient phase reads back — the FC deltas and the sparse conv
// deltas of both layers.
type sample struct {
	activations
	dLogit []float64
	d1, d2 deltas
	weight float64
}

// inference is the pooled per-call state of Predict, Probabilities and
// Scores.
type inference struct {
	ws workspace
	a  activations
}

func (c *CNN) newActivations() activations {
	return activations{
		x0:    make([]float64, c.l1.in().len(c.cfg.InChannels)),
		x1:    make([]float64, c.l2.in().len(c.cfg.Conv1)),
		arg1:  make([]int32, c.l1.pooled()),
		arg2:  make([]int32, c.l2.pooled()),
		feat:  make([]float64, c.fcIn),
		probs: make([]float64, c.cfg.Classes),
	}
}

func (c *CNN) newWorkspace() workspace {
	return workspace{
		band: make([]float64, max(c.l1.bandSize(), c.l2.bandSize())),
		out:  make([]float64, bandRows*max(c.cfg.Conv1*c.l1.size, c.cfg.Conv2*c.l2.size)),
	}
}

func (c *CNN) newSample() *sample {
	return &sample{
		activations: c.newActivations(),
		dLogit:      make([]float64, c.cfg.Classes),
		d1:          newDeltas(c.l1),
		d2:          newDeltas(c.l2),
	}
}

// getInference takes a pooled inference state; callers return it to
// c.pool when done.
func (c *CNN) getInference() *inference {
	if st, ok := c.pool.Get().(*inference); ok {
		return st
	}
	return &inference{ws: c.newWorkspace(), a: c.newActivations()}
}

// forward runs the network on one image, leaving the softmax in a.probs.
func (c *CNN) forward(ws *workspace, a *activations, im *imagerep.Image) {
	in := c.l1.in()
	size := c.cfg.InSize
	for ch := 0; ch < c.cfg.InChannels; ch++ {
		for y := 0; y < size; y++ {
			o := in.at(ch, y, 0)
			copy(a.x0[o:o+size], im.Data[(ch*size+y)*size:(ch*size+y+1)*size])
		}
	}
	c.l1.forward(c.params, a.x0, a.x1, c.l2.in(), a.arg1, ws.band, ws.out)
	c.l2.forward(c.params, a.x1, a.feat, grid{side: c.size2}, a.arg2, ws.band, ws.out)
	for cls := 0; cls < c.cfg.Classes; cls++ {
		row := c.params[c.wf+cls*c.fcIn : c.wf+(cls+1)*c.fcIn]
		a.probs[cls] = c.params[c.bf+cls] + linalg.Dot(row, a.feat)
	}
	linalg.Softmax(a.probs, a.probs)
}

// backprop is a training step's per-sample phase: forward, the
// (optionally class-weighted) cross-entropy deltas of the FC layer, their
// routing through pool2 and the conv2 ReLU gate, conv2's input gradient,
// and its routing through pool1 and the conv1 ReLU gate.
func (c *CNN) backprop(ws *workspace, s *sample, im *imagerep.Image, label int) {
	c.forward(ws, &s.activations, im)

	s.weight = 1
	if c.cfg.ClassWeights != nil {
		s.weight = c.cfg.ClassWeights[label]
	}
	linalg.Zero(ws.dFeat)
	for cls := 0; cls < c.cfg.Classes; cls++ {
		d := s.probs[cls]
		if cls == label {
			d--
		}
		d *= s.weight
		s.dLogit[cls] = d
		linalg.Axpy(ws.dFeat, c.params[c.wf+cls*c.fcIn:c.wf+(cls+1)*c.fcIn], d)
	}

	fc := grid{side: c.size2}
	c.l2.gather(s.feat, ws.dFeat, fc, s.arg2, &s.d2)
	linalg.Zero(ws.dx1)
	c.l2.inputGrad(c.params, &s.d2, ws.dx1)
	c.l1.gather(s.x1, ws.dx1, c.l2.in(), s.arg1, &s.d1)
}

// accumulate is a training step's per-row phase: row u of the gradient —
// a conv1 channel, a conv2 channel or an FC class — summed over the batch
// in sample order.
func (c *CNN) accumulate(u int, batch []*sample, grads []float64) {
	if u < c.cfg.Conv1 {
		taps := c.l1.taps()
		gw := grads[c.l1.w+u*taps : c.l1.w+(u+1)*taps]
		for _, s := range batch {
			c.l1.weightGrad(u, s.x0, &s.d1, gw, &grads[c.l1.b+u])
		}
		return
	}
	if u -= c.cfg.Conv1; u < c.cfg.Conv2 {
		taps := c.l2.taps()
		gw := grads[c.l2.w+u*taps : c.l2.w+(u+1)*taps]
		for _, s := range batch {
			c.l2.weightGrad(u, s.x1, &s.d2, gw, &grads[c.l2.b+u])
		}
		return
	}
	cls := u - c.cfg.Conv2
	gw := grads[c.wf+cls*c.fcIn : c.wf+(cls+1)*c.fcIn]
	for _, s := range batch {
		grads[c.bf+cls] += s.dLogit[cls]
		linalg.Axpy(gw, s.feat, s.dLogit[cls])
	}
}

// trainer holds a training run's buffers: one workspace per goroutine, one
// sample slot per minibatch position, and the single gradient vector.
type trainer struct {
	c       *CNN
	ws      []workspace
	samples []*sample
	grads   []float64
}

func (c *CNN) newTrainer() *trainer {
	workers := min(runtime.GOMAXPROCS(0), c.cfg.BatchSize)
	t := &trainer{c: c, grads: make([]float64, len(c.params))}
	for w := 0; w < workers; w++ {
		ws := c.newWorkspace()
		ws.dFeat = make([]float64, c.fcIn)
		ws.dx1 = make([]float64, c.l2.in().len(c.cfg.Conv1))
		t.ws = append(t.ws, ws)
	}
	for i := 0; i < c.cfg.BatchSize; i++ {
		t.samples = append(t.samples, c.newSample())
	}
	return t
}

// gradient fills t.grads with the summed loss gradient of the minibatch
// batch (indices into images) and returns the summed loss weight. Phase
// A runs the samples in parallel; phase B the gradient rows. Each gradient
// cell sums its terms in (sample, pixel) order whatever the goroutine
// count, so the result is the serial trainer's, bit for bit.
func (t *trainer) gradient(images []*imagerep.Image, labels []int, batch []int) float64 {
	c := t.c
	slots := t.samples[:len(batch)]
	parallelFor(len(t.ws), len(batch), func(w, i int) {
		c.backprop(&t.ws[w], slots[i], images[batch[i]], labels[batch[i]])
	})
	linalg.Zero(t.grads)
	parallelFor(len(t.ws), c.cfg.Conv1+c.cfg.Conv2+c.cfg.Classes, func(_, u int) {
		c.accumulate(u, slots, t.grads)
	})
	var weight float64
	for _, s := range slots {
		weight += s.weight
	}
	return weight
}

// parallelFor runs fn(w, i) for every i in [0, n) on up to workers
// goroutines, w naming the calling goroutine's slot. Every index writes
// only its own outputs, so results never depend on the schedule.
func parallelFor(workers, n int, fn func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
