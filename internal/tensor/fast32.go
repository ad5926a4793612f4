package tensor

// Fast-tier float32 kernels. The generic GEMM/GEMV loops accumulate through a
// single serial chain in ascending index order — auditable, and what the
// float64 reference tier runs — but on a scalar core that chain is bound by
// FP-add latency (~4 cycles per element), not by arithmetic throughput or
// memory bandwidth. The float32 tier is the product's hot path, so it trades
// the strict serial order for speed: four independent accumulators retire one
// multiply-add per cycle, and the generic kernel's per-element zero-skip
// branch is dropped (dense weight matrices never take it) or coarsened to a
// per-group skip in the GEMM kernels (ReLU-sparse batched activations still
// benefit without paying a branch per element).
//
// The reassociated sum (s0+s1)+(s2+s3) differs from the serial chain by
// rounding only. This is the fast tier's documented accumulation-order
// caveat (DESIGN.md "Precision tiers"): fp32 results are deterministic
// run-to-run — the unroll pattern is fixed — but are not bit-comparable to a
// strictly-serial evaluation of the same dot product. The float64 reference
// tier keeps the serial kernels precisely so there is an auditable baseline
// to bound the fast tier against.

// dot32 returns the dot product of a and x[:len(a)] with four-way unrolled
// accumulation.
func dot32(a, x []float32) float32 {
	n := len(a)
	x = x[:n]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * x[i]
		s1 += a[i+1] * x[i+1]
		s2 += a[i+2] * x[i+2]
		s3 += a[i+3] * x[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * x[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// matvec32 is the fast-tier GEMV row kernel: one unrolled dot product per
// output row.
func matvec32(dst, a, x []float32, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = dot32(a[i*k:(i+1)*k], x)
	}
}

// FusedUpdateRow32 is the fast-tier row kernel of the batched fused SGD
// fold: for one weight row whose full-batch gradient gw is already
// accumulated it applies inverse-batch scaling, weight decay and momentum,
// steps the weights and re-zeroes the gradient in one pass. The
// loop-invariant conditions (momentum on/off, invScale, weight decay) are
// hoisted into specialised loops; each variant executes exactly the
// per-element operation sequence of the generic fold in internal/nn, so the
// fast tier stays bit-identical to it (amd64 does not contract a*b+c into
// FMA, so regrouped expressions are bitwise safe). v may be nil (no
// momentum).
func FusedUpdateRow32(w, gw, v []float32, invScale, wdec, m, lrNeg float32) {
	n := len(w)
	gw = gw[:n]
	if wdec == 0 && v == nil {
		if invScale != 1 {
			for i, wv := range w {
				ge := gw[i] * invScale
				w[i] = wv + lrNeg*ge
				gw[i] = 0
			}
		} else {
			for i, wv := range w {
				w[i] = wv + lrNeg*gw[i]
				gw[i] = 0
			}
		}
		return
	}
	if wdec == 0 && v != nil {
		v = v[:n]
		if invScale != 1 {
			for i, wv := range w {
				ge := gw[i] * invScale
				vv := v[i]*m + ge
				v[i] = vv
				w[i] = wv + lrNeg*vv
				gw[i] = 0
			}
		} else {
			for i, wv := range w {
				vv := v[i]*m + gw[i]
				v[i] = vv
				w[i] = wv + lrNeg*vv
				gw[i] = 0
			}
		}
		return
	}
	for i, wv := range w {
		ge := gw[i]
		if invScale != 1 {
			ge *= invScale
		}
		ge += wdec * wv
		if v != nil {
			vv := v[i]*m + ge
			v[i] = vv
			ge = vv
		}
		w[i] = wv + lrNeg*ge
		gw[i] = 0
	}
}

// matmul32 is the fast-tier GEMM kernel behind matmulInto: the same k-blocked
// ikj traversal, with the p-loop grouped four rows of b at a time so each dst
// element is read and written once per group instead of once per p, and the
// i-loop paired two dst rows at a time. Pairing changes nothing about any
// element's arithmetic — the two rows' chains are fully independent — but it
// halves the b-panel loads and, more importantly, doubles the independent
// FP-add chains in flight: one row's chain is bound by add latency, two
// interleaved chains keep the adder busy. The per-element chain
// s = ((((d + a0·b0) + a1·b1) + a2·b2) + a3·b3) is exactly the ascending-p
// serial order of the generic loop, and the skipped-vs-added zero products
// cannot differ either: dst starts from +0 and a round-to-nearest sum that
// never sees two -0 addends can never become -0, so adding a zero product is
// an exact no-op. The group skip fires only when every a value feeding the
// group is zero (ReLU-sparse batched activations), which keeps the generic
// kernel's sparsity win without a branch per p.
func matmul32(dst, a, b []float32, m, k, n int) {
	kb := panelRows[float32](n)
	for p0 := 0; p0 < k; p0 += kb {
		p1 := p0 + kb
		if p1 > k {
			p1 = k
		}
		i := 0
		for ; i+2 <= m; i += 2 {
			ai := a[i*k : (i+1)*k]
			ci := a[(i+1)*k : (i+2)*k]
			// The [:n] reslices below give every row a length the compiler can
			// prove equal to len(di), so the inner loops run bounds-check-free.
			di := dst[i*n:]
			di = di[:n]
			ei := dst[(i+1)*n:]
			ei = ei[:n]
			p := p0
			for ; p+4 <= p1; p += 4 {
				a0, a1, a2, a3 := ai[p], ai[p+1], ai[p+2], ai[p+3]
				c0, c1, c2, c3 := ci[p], ci[p+1], ci[p+2], ci[p+3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 &&
					c0 == 0 && c1 == 0 && c2 == 0 && c3 == 0 {
					continue
				}
				b0 := b[p*n:]
				b0 = b0[:n]
				b1 := b[(p+1)*n:]
				b1 = b1[:n]
				b2 := b[(p+2)*n:]
				b2 = b2[:n]
				b3 := b[(p+3)*n:]
				b3 = b3[:n]
				for j := range di {
					bv0, bv1, bv2, bv3 := b0[j], b1[j], b2[j], b3[j]
					s := di[j] + a0*bv0
					t := ei[j] + c0*bv0
					s += a1 * bv1
					t += c1 * bv1
					s += a2 * bv2
					t += c2 * bv2
					s += a3 * bv3
					t += c3 * bv3
					di[j] = s
					ei[j] = t
				}
			}
			for ; p < p1; p++ {
				av, cv := ai[p], ci[p]
				if av == 0 && cv == 0 {
					continue
				}
				bp := b[p*n:]
				bp = bp[:n]
				for j, bv := range bp {
					di[j] += av * bv
					ei[j] += cv * bv
				}
			}
		}
		if i < m {
			ai := a[i*k : (i+1)*k]
			di := dst[i*n : (i+1)*n]
			p := p0
			for ; p+4 <= p1; p += 4 {
				a0, a1, a2, a3 := ai[p], ai[p+1], ai[p+2], ai[p+3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				b0 := b[p*n : (p+1)*n]
				b1 := b[(p+1)*n : (p+2)*n]
				b2 := b[(p+2)*n : (p+3)*n]
				b3 := b[(p+3)*n : (p+4)*n]
				for j := range di {
					s := di[j] + a0*b0[j]
					s += a1 * b1[j]
					s += a2 * b2[j]
					s += a3 * b3[j]
					di[j] = s
				}
			}
			for ; p < p1; p++ {
				av := ai[p]
				if av == 0 {
					continue
				}
				bp := b[p*n : (p+1)*n]
				for j, bv := range bp {
					di[j] += av * bv
				}
			}
		}
	}
}

// matmulT132 is matmul32 for the transposed-first-operand accumulate kernel
// (dW += Gᵀ·X in the batched dense backward): a is read column-wise with
// stride m, four p-rows per group, two dst rows per pass (adjacent columns of
// a — one cache line feeds both chains), same left-associated ascending-p
// chain per element as matmulT1Range and therefore bit-identical to it by the
// matmul32 argument.
func matmulT132(dst, a, b []float32, m, k, n, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		di := dst[i*n:]
		di = di[:n]
		ei := dst[(i+1)*n:]
		ei = ei[:n]
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, c0 := a[p*m+i], a[p*m+i+1]
			a1, c1 := a[(p+1)*m+i], a[(p+1)*m+i+1]
			a2, c2 := a[(p+2)*m+i], a[(p+2)*m+i+1]
			a3, c3 := a[(p+3)*m+i], a[(p+3)*m+i+1]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 &&
				c0 == 0 && c1 == 0 && c2 == 0 && c3 == 0 {
				continue
			}
			b0 := b[p*n:]
			b0 = b0[:n]
			b1 := b[(p+1)*n:]
			b1 = b1[:n]
			b2 := b[(p+2)*n:]
			b2 = b2[:n]
			b3 := b[(p+3)*n:]
			b3 = b3[:n]
			for j := range di {
				bv0, bv1, bv2, bv3 := b0[j], b1[j], b2[j], b3[j]
				s := di[j] + a0*bv0
				t := ei[j] + c0*bv0
				s += a1 * bv1
				t += c1 * bv1
				s += a2 * bv2
				t += c2 * bv2
				s += a3 * bv3
				t += c3 * bv3
				di[j] = s
				ei[j] = t
			}
		}
		for ; p < k; p++ {
			av, cv := a[p*m+i], a[p*m+i+1]
			if av == 0 && cv == 0 {
				continue
			}
			bp := b[p*n:]
			bp = bp[:n]
			for j, bv := range bp {
				di[j] += av * bv
				ei[j] += cv * bv
			}
		}
	}
	if i < hi {
		di := dst[i*n : (i+1)*n]
		p := 0
		for ; p+4 <= k; p += 4 {
			a0 := a[p*m+i]
			a1 := a[(p+1)*m+i]
			a2 := a[(p+2)*m+i]
			a3 := a[(p+3)*m+i]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := b[p*n : (p+1)*n]
			b1 := b[(p+1)*n : (p+2)*n]
			b2 := b[(p+2)*n : (p+3)*n]
			b3 := b[(p+3)*n : (p+4)*n]
			for j := range di {
				s := di[j] + a0*b0[j]
				s += a1 * b1[j]
				s += a2 * b2[j]
				s += a3 * b3[j]
				di[j] = s
			}
		}
		for ; p < k; p++ {
			av := a[p*m+i]
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j, bv := range bp {
				di[j] += av * bv
			}
		}
	}
}

// DenseBackwardRow32 is the fast-tier dense-layer backward row kernel:
// gw[i] += g*x[i] and gx[i] += g*w[i] in one pass. Unlike dot32 every output
// element is independent — there is no accumulation chain to reassociate —
// so the unrolled loop is bit-identical to the naive one; it exists only to
// amortise loop control across four elements. Exported for internal/nn's
// dense backward and fused-step kernels, which must stay bit-identical to
// each other.
func DenseBackwardRow32(gw, gx, w, x []float32, g float32) {
	n := len(x)
	gw, gx, w = gw[:n], gx[:n], w[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		gw[i] += g * x[i]
		gx[i] += g * w[i]
		gw[i+1] += g * x[i+1]
		gx[i+1] += g * w[i+1]
		gw[i+2] += g * x[i+2]
		gx[i+2] += g * w[i+2]
		gw[i+3] += g * x[i+3]
		gx[i+3] += g * w[i+3]
	}
	for ; i < n; i++ {
		gw[i] += g * x[i]
		gx[i] += g * w[i]
	}
}
