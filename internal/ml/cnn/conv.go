package cnn

// The network's one convolution kernel. Forward, every layer unfolds
// bandRows output rows at a time into an im2col patch band (one row of
// inCh·5·5 taps per output pixel, read from a zero-padded input plane) and
// multiplies it against the kernel bank with a register-tiled microkernel
// (4 pixels × 2 output channels, 8 independent accumulators), fusing ReLU
// and the 2×2 max pool into the write. Backward reuses the same padded
// planes: the input gradient is a col2im scatter of kernel rows, the weight
// gradient an axpy of patch rows.
//
// Bit-exactness rests on term order, not on tolerance. Every output cell
// starts from its bias and adds w·x for its taps in ascending (ic, ky, kx)
// order; every gradient cell adds its terms in ascending (sample, pixel)
// order, skipping exact-zero deltas. Each product is rounded on its own
// (the float64 conversions forbid fused multiply-add). A tap on the
// padding adds a ±0 product, which changes no accumulator other than -0;
// gradients start at +0 and never reach -0, and training never makes a
// bias -0, so the padded kernel computes the same bits as a direct
// convolution that skips out-of-range taps.

// bandRows is how many output rows one im2col band holds. It must be even
// so every 2×2 pool window lies inside one band; with it, a 3×32×32 conv1
// band is 77 KB and an 8×16×16 conv2 band 102 KB.
const bandRows = 4

// grid is the layout of a stack of square planes with a zero border:
// plane ch, cell (y, x) lives at ((ch·side)+y+border)·side + x+border.
type grid struct {
	side, border int
}

func (g grid) at(ch, y, x int) int {
	return (ch*g.side+y+g.border)*g.side + x + g.border
}

// len is the length of a stack of planes.
func (g grid) len(planes int) int { return planes * g.side * g.side }

// convLayer is one 5×5 stride-1 pad-2 convolution: its geometry and the
// offsets of its weights (outCh × inCh·25, row-major over (ic, ky, kx))
// and biases in the parameter vector.
type convLayer struct {
	inCh, outCh int
	size        int // input and output side
	w, b        int
}

func (l convLayer) taps() int { return l.inCh * kernel * kernel }

// in is the layout of the layer's padded input planes.
func (l convLayer) in() grid { return grid{side: l.size + 2*pad, border: pad} }

// pooled is the number of 2×2 pool cells over all output channels.
func (l convLayer) pooled() int { return l.outCh * (l.size / 2) * (l.size / 2) }

// bandSize is the im2col band capacity the layer needs.
func (l convLayer) bandSize() int { return bandRows * l.size * l.taps() }

// forward runs the layer over padded input planes x: ReLU(conv) max-pooled
// 2×2, pooled channel oc cell (py, px) written to dst at g.at(oc, py, px)
// and its winning conv-output pixel (y·size + x) to arg. band and out are
// scratch of at least bandSize() and outCh·bandRows·size.
func (l convLayer) forward(params, x, dst []float64, g grid, arg []int32, band, out []float64) {
	taps := l.taps()
	w := params[l.w : l.w+l.outCh*taps]
	b := params[l.b : l.b+l.outCh]
	for y0 := 0; y0 < l.size; y0 += bandRows {
		rows := min(bandRows, l.size-y0)
		npix := rows * l.size
		l.im2col(x, y0, rows, band[:npix*taps])
		gemmReLU(band[:npix*taps], npix, w, b, out[:l.outCh*npix])
		l.pool(out, npix, y0, rows, dst, g, arg)
	}
}

// im2col unfolds output rows [y0, y0+rows) into band: one row of taps per
// output pixel, in (ic, ky, kx) order.
func (l convLayer) im2col(x []float64, y0, rows int, band []float64) {
	in := l.in()
	taps := l.taps()
	p := 0
	for y := y0; y < y0+rows; y++ {
		for xx := 0; xx < l.size; xx++ {
			dst := band[p*taps : (p+1)*taps]
			for ic := 0; ic < l.inCh; ic++ {
				base := (ic*in.side+y)*in.side + xx
				for ky := 0; ky < kernel; ky++ {
					s := x[base+ky*in.side : base+ky*in.side+kernel]
					d := dst[(ic*kernel+ky)*kernel : (ic*kernel+ky+1)*kernel]
					d[0], d[1], d[2], d[3], d[4] = s[0], s[1], s[2], s[3], s[4]
				}
			}
			p++
		}
	}
}

// gemmReLU computes out[oc·npix + p] = ReLU(b[oc] + Σ_k w[oc,k]·band[p,k])
// with k ascending. npix is a multiple of 4 (band rows and plane sides are
// both even); an odd channel count leaves one single-channel tail.
func gemmReLU(band []float64, npix int, w, b, out []float64) {
	outCh := len(b)
	taps := len(w) / outCh
	for p := 0; p < npix; p += 4 {
		r0 := band[p*taps : (p+1)*taps]
		r1 := band[(p+1)*taps : (p+2)*taps]
		r2 := band[(p+2)*taps : (p+3)*taps]
		r3 := band[(p+3)*taps : (p+4)*taps]
		oc := 0
		for ; oc+2 <= outCh; oc += 2 {
			w0 := w[oc*taps : (oc+1)*taps]
			w1 := w[(oc+1)*taps : (oc+2)*taps][:len(w0)]
			r0, r1, r2, r3 := r0[:len(w0)], r1[:len(w0)], r2[:len(w0)], r3[:len(w0)]
			a00, a10, a20, a30 := b[oc], b[oc], b[oc], b[oc]
			a01, a11, a21, a31 := b[oc+1], b[oc+1], b[oc+1], b[oc+1]
			for k, u := range w0 {
				v := w1[k]
				q0, q1, q2, q3 := r0[k], r1[k], r2[k], r3[k]
				a00 += float64(u * q0)
				a01 += float64(v * q0)
				a10 += float64(u * q1)
				a11 += float64(v * q1)
				a20 += float64(u * q2)
				a21 += float64(v * q2)
				a30 += float64(u * q3)
				a31 += float64(v * q3)
			}
			o0 := out[oc*npix+p : oc*npix+p+4]
			o1 := out[(oc+1)*npix+p : (oc+1)*npix+p+4]
			o0[0], o0[1], o0[2], o0[3] = relu(a00), relu(a10), relu(a20), relu(a30)
			o1[0], o1[1], o1[2], o1[3] = relu(a01), relu(a11), relu(a21), relu(a31)
		}
		if oc < outCh {
			w0 := w[oc*taps : (oc+1)*taps]
			r0, r1, r2, r3 := r0[:len(w0)], r1[:len(w0)], r2[:len(w0)], r3[:len(w0)]
			a0, a1, a2, a3 := b[oc], b[oc], b[oc], b[oc]
			for k, u := range w0 {
				a0 += float64(u * r0[k])
				a1 += float64(u * r1[k])
				a2 += float64(u * r2[k])
				a3 += float64(u * r3[k])
			}
			o := out[oc*npix+p : oc*npix+p+4]
			o[0], o[1], o[2], o[3] = relu(a0), relu(a1), relu(a2), relu(a3)
		}
	}
}

func relu(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// pool max-pools one band's ReLU outputs (outCh planes of rows×size at
// stride npix in out) into dst, recording each window's winning pixel.
// Ties keep the first of (0,0), (0,1), (1,0), (1,1).
func (l convLayer) pool(out []float64, npix, y0, rows int, dst []float64, g grid, arg []int32) {
	size, half := l.size, l.size/2
	for oc := 0; oc < l.outCh; oc++ {
		o := out[oc*npix : (oc+1)*npix]
		for by := 0; by < rows; by += 2 {
			py := (y0 + by) / 2
			d := dst[g.at(oc, py, 0) : g.at(oc, py, 0)+half]
			a := arg[(oc*half+py)*half : (oc*half+py+1)*half]
			top, bottom := o[by*size:(by+1)*size], o[(by+1)*size:(by+2)*size]
			for px := range d {
				x := 2 * px
				best, v := x, top[x]
				if top[x+1] > v {
					best, v = x+1, top[x+1]
				}
				if bottom[x] > v {
					best, v = size+x, bottom[x]
				}
				if bottom[x+1] > v {
					best, v = size+x+1, bottom[x+1]
				}
				d[px] = v
				a[px] = int32((y0+by)*size + best)
			}
		}
	}
}

// deltas lists one layer's nonzero output-gradient cells, channel by
// channel, each channel's pixels in ascending raster order.
type deltas struct {
	start []int // channel oc owns entries [start[oc], start[oc+1])
	pix   []int32
	val   []float64
}

func newDeltas(l convLayer) deltas {
	return deltas{
		start: make([]int, l.outCh+1),
		pix:   make([]int32, 0, l.pooled()),
		val:   make([]float64, 0, l.pooled()),
	}
}

// gather routes the pooled-output gradient dp (laid out like the pooled
// values v, by g) to each window's winning pixel, through the ReLU gate:
// a winner clamped to zero passes no gradient. Only the winner of a window
// can be nonzero, so the conv-output gradient is this sparse list.
func (l convLayer) gather(v, dp []float64, g grid, arg []int32, d *deltas) {
	half := l.size / 2
	d.pix, d.val = d.pix[:0], d.val[:0]
	for oc := 0; oc < l.outCh; oc++ {
		d.start[oc] = len(d.pix)
		for py := 0; py < half; py++ {
			a := arg[(oc*half+py)*half : (oc*half+py+1)*half]
			row := g.at(oc, py, 0)
			vs, dps := v[row:row+half], dp[row:row+half]
			// A window's winner sits in conv row 2py or 2py+1; visiting
			// the two rows in turn keeps the list in raster order.
			for y := 2 * py; y < 2*py+2; y++ {
				lo, hi := int32(y*l.size), int32((y+1)*l.size)
				for px, src := range a {
					if src < lo || src >= hi || vs[px] <= 0 || dps[px] == 0 {
						continue
					}
					d.pix = append(d.pix, src)
					d.val = append(d.val, dps[px])
				}
			}
		}
	}
	d.start[l.outCh] = len(d.pix)
}

// inputGrad scatters d·w for every listed delta into the padded input
// gradient dx (col2im), in (oc, pixel) order. Padding cells collect the
// out-of-range terms and are never read.
func (l convLayer) inputGrad(params []float64, d *deltas, dx []float64) {
	in := l.in()
	taps := l.taps()
	for oc := 0; oc < l.outCh; oc++ {
		w := params[l.w+oc*taps : l.w+(oc+1)*taps]
		for j := d.start[oc]; j < d.start[oc+1]; j++ {
			pix, v := int(d.pix[j]), d.val[j]
			base := pix/l.size*in.side + pix%l.size
			for ic := 0; ic < l.inCh; ic++ {
				for ky := 0; ky < kernel; ky++ {
					o := (ic*in.side)*in.side + base + ky*in.side
					r := dx[o : o+kernel]
					k := w[(ic*kernel+ky)*kernel : (ic*kernel+ky+1)*kernel]
					r[0] += float64(v * k[0])
					r[1] += float64(v * k[1])
					r[2] += float64(v * k[2])
					r[3] += float64(v * k[3])
					r[4] += float64(v * k[4])
				}
			}
		}
	}
}

// weightGrad adds one sample's gradient for output channel oc: gb += d
// and gw += d·patch for every listed delta, the patch read straight from
// the padded input x.
func (l convLayer) weightGrad(oc int, x []float64, d *deltas, gw []float64, gb *float64) {
	in := l.in()
	for j := d.start[oc]; j < d.start[oc+1]; j++ {
		pix, v := int(d.pix[j]), d.val[j]
		*gb += v
		base := pix/l.size*in.side + pix%l.size
		for ic := 0; ic < l.inCh; ic++ {
			for ky := 0; ky < kernel; ky++ {
				o := (ic*in.side)*in.side + base + ky*in.side
				r := x[o : o+kernel]
				g := gw[(ic*kernel+ky)*kernel : (ic*kernel+ky+1)*kernel]
				g[0] += float64(v * r[0])
				g[1] += float64(v * r[1])
				g[2] += float64(v * r[2])
				g[3] += float64(v * r[3])
				g[4] += float64(v * r[4])
			}
		}
	}
}
