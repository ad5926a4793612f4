package tensor

import (
	"fmt"
	"math"
)

// Add returns t + o elementwise as a new tensor.
func Add[T Float](t, o *Of[T]) *Of[T] {
	checkSame("Add", t, o)
	out := t.Clone()
	for i, v := range o.data {
		out.data[i] += v
	}
	return out
}

// Sub returns t - o elementwise as a new tensor.
func Sub[T Float](t, o *Of[T]) *Of[T] {
	checkSame("Sub", t, o)
	out := t.Clone()
	for i, v := range o.data {
		out.data[i] -= v
	}
	return out
}

// Mul returns t * o elementwise as a new tensor.
func Mul[T Float](t, o *Of[T]) *Of[T] {
	checkSame("Mul", t, o)
	out := t.Clone()
	for i, v := range o.data {
		out.data[i] *= v
	}
	return out
}

// AddInPlace adds o into t elementwise.
func (t *Of[T]) AddInPlace(o *Of[T]) {
	checkSame("AddInPlace", t, o)
	for i, v := range o.data {
		t.data[i] += v
	}
}

// SubInPlace subtracts o from t elementwise.
func (t *Of[T]) SubInPlace(o *Of[T]) {
	checkSame("SubInPlace", t, o)
	for i, v := range o.data {
		t.data[i] -= v
	}
}

// Scale multiplies every element by s in place.
func (t *Of[T]) Scale(s T) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// AddScaled performs t += s*o (axpy).
func (t *Of[T]) AddScaled(s T, o *Of[T]) {
	checkSame("AddScaled", t, o)
	for i, v := range o.data {
		t.data[i] += s * v
	}
}

// Dot returns the inner product of two tensors of equal element count.
func Dot[T Float](a, b *Of[T]) float64 {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: Dot size mismatch %v vs %v", a.shape, b.shape))
	}
	var s float64
	for i, v := range a.data {
		s += float64(v) * float64(b.data[i])
	}
	return s
}

// Norm2 returns the L2 norm of the tensor.
func (t *Of[T]) Norm2() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Sum returns the sum of all elements in float64 precision.
func (t *Of[T]) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the mean of all elements, or 0 for an empty tensor.
func (t *Of[T]) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// ArgMax returns the index of the maximum element of a 1-D tensor (or the
// flattened tensor). Ties resolve to the lowest index.
func (t *Of[T]) ArgMax() int {
	best, bi := T(math.Inf(-1)), 0
	for i, v := range t.data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// ArgMaxRows returns, for a [N, C] tensor, the argmax of each row.
func (t *Of[T]) ArgMaxRows() []int {
	out := make([]int, t.shape[0])
	t.ArgMaxRowsInto(out)
	return out
}

// ArgMaxRowsInto writes the per-row argmax of a [N, C] tensor into out, which
// must have exactly N elements. It is the allocation-free sibling of
// ArgMaxRows for batched prediction loops.
func (t *Of[T]) ArgMaxRowsInto(out []int) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRowsInto on shape %v", t.shape))
	}
	n, c := t.shape[0], t.shape[1]
	if len(out) != n {
		panic(fmt.Sprintf("tensor: ArgMaxRowsInto out length %d, want %d", len(out), n))
	}
	for i := 0; i < n; i++ {
		row := t.data[i*c : (i+1)*c]
		best, bi := T(math.Inf(-1)), 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
}

// Softmax returns softmax over the last dimension of a 1-D or 2-D tensor.
func Softmax[T Float](t *Of[T]) *Of[T] {
	out := NewOf[T](t.shape...)
	SoftmaxInto(out, t)
	return out
}

// SoftmaxInto computes softmax over the last dimension of a 1-D or 2-D tensor
// into dst, which must have t's element count. dst == t is allowed (in-place).
func SoftmaxInto[T Float](dst, t *Of[T]) {
	if len(dst.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: SoftmaxInto dst size %v, want %v", dst.shape, t.shape))
	}
	switch len(t.shape) {
	case 1:
		SoftmaxRow(dst.data, t.data)
	case 2:
		c := t.shape[1]
		for i := 0; i < t.shape[0]; i++ {
			SoftmaxRow(dst.data[i*c:(i+1)*c], t.data[i*c:(i+1)*c])
		}
	default:
		panic(fmt.Sprintf("tensor: SoftmaxInto on shape %v", t.shape))
	}
}

// SoftmaxRow is SoftmaxInto over one row held in plain slices; dst and src
// may be the same slice.
func SoftmaxRow[T Float](dst, src []T) {
	mx := T(math.Inf(-1))
	for _, v := range src {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for i, v := range src {
		e := T(math.Exp(float64(v - mx)))
		dst[i] = e
		sum += float64(e)
	}
	inv := T(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}

// LogSoftmax returns log-softmax over the last dimension of a 1-D or 2-D
// tensor, computed stably.
func LogSoftmax[T Float](t *Of[T]) *Of[T] {
	out := NewOf[T](t.shape...)
	LogSoftmaxInto(out, t)
	return out
}

// LogSoftmaxInto computes log-softmax over the last dimension of a 1-D or 2-D
// tensor into dst, which must have t's element count. dst == t is allowed:
// both row kernels read src element-wise before the matching write.
func LogSoftmaxInto[T Float](dst, t *Of[T]) {
	if len(dst.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: LogSoftmaxInto dst size %v, want %v", dst.shape, t.shape))
	}
	switch len(t.shape) {
	case 1:
		LogSoftmaxRow(dst.data, t.data)
	case 2:
		c := t.shape[1]
		for i := 0; i < t.shape[0]; i++ {
			LogSoftmaxRow(dst.data[i*c:(i+1)*c], t.data[i*c:(i+1)*c])
		}
	default:
		panic(fmt.Sprintf("tensor: LogSoftmaxInto on shape %v", t.shape))
	}
}

// LogSoftmaxRow is LogSoftmaxInto over one row held in plain slices; dst and
// src may be the same slice.
func LogSoftmaxRow[T Float](dst, src []T) {
	mx := T(math.Inf(-1))
	for _, v := range src {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for _, v := range src {
		sum += math.Exp(float64(v - mx))
	}
	lse := mx + T(math.Log(sum))
	for i, v := range src {
		dst[i] = v - lse
	}
}

// KLDivergence returns KL(p || q) for two probability vectors of equal
// length. Probabilities below eps are clamped to keep the result finite.
func KLDivergence[T Float](p, q []T) float64 {
	if len(p) != len(q) {
		panic("tensor: KLDivergence length mismatch")
	}
	const eps = 1e-8
	var kl float64
	for i := range p {
		pi := math.Max(float64(p[i]), eps)
		qi := math.Max(float64(q[i]), eps)
		kl += pi * math.Log(pi/qi)
	}
	if kl < 0 {
		kl = 0 // numerical floor: KL is non-negative
	}
	return kl
}

// Concat stacks tensors along a new leading dimension. All inputs must share
// a shape; the result has shape [len(ts), inputShape...].
func Concat[T Float](ts []*Of[T]) *Of[T] {
	if len(ts) == 0 {
		panic("tensor: Concat of zero tensors")
	}
	first := ts[0]
	out := NewOf[T](append([]int{len(ts)}, first.shape...)...)
	sub := first.Len()
	for i, t := range ts {
		if !t.SameShape(first) {
			panic(fmt.Sprintf("tensor: Concat shape mismatch %v vs %v", t.shape, first.shape))
		}
		copy(out.data[i*sub:(i+1)*sub], t.data)
	}
	return out
}

func checkSame[T Float](op string, a, b *Of[T]) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}
