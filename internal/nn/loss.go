package nn

import (
	"fmt"
	"math"

	"chameleon/internal/tensor"
)

// CrossEntropy returns the negative log-likelihood of label under
// softmax(logits) and the gradient of the loss with respect to the logits
// (softmax − onehot).
func CrossEntropy[T tensor.Float](logits *tensor.Of[T], label int) (loss float64, grad *tensor.Of[T]) {
	grad = tensor.NewOf[T](logits.Len())
	loss = CrossEntropyInto(logits, label, grad)
	return loss, grad
}

// CrossEntropyInto is CrossEntropy writing the gradient into a caller-owned
// tensor (overwritten), so batched training loops can reuse one scratch
// gradient instead of allocating per sample. grad must have logits.Len()
// elements.
func CrossEntropyInto[T tensor.Float](logits *tensor.Of[T], label int, grad *tensor.Of[T]) (loss float64) {
	if logits.NDim() != 1 {
		panic(fmt.Sprintf("nn: CrossEntropy expects 1-D logits, got %v", logits.Shape()))
	}
	if label < 0 || label >= logits.Len() {
		panic(fmt.Sprintf("nn: label %d out of range for %d classes", label, logits.Len()))
	}
	if grad.Len() != logits.Len() {
		panic(fmt.Sprintf("nn: CrossEntropyInto grad size %d, want %d", grad.Len(), logits.Len()))
	}
	return crossEntropyRow(logits.Data(), label, grad.Data())
}

// crossEntropyRow is the cross-entropy kernel over one row: the log-softmax
// lands directly in grad, which then exponentiates in place (softmax −
// onehot). grad may alias logits.
func crossEntropyRow[T tensor.Float](logits []T, label int, grad []T) float64 {
	tensor.LogSoftmaxRow(grad, logits)
	loss := -float64(grad[label])
	for i, v := range grad {
		grad[i] = T(math.Exp(float64(v)))
	}
	grad[label] -= 1
	return loss
}

// LossKind selects the loss that scores one row of a batched step.
type LossKind uint8

const (
	// LossCE is cross-entropy against the row's Label (CrossEntropyInto).
	LossCE LossKind = iota
	// LossSoft is distillation against the Target teacher logits at
	// Temperature (SoftCrossEntropyInto).
	LossSoft
	// LossMSE is the logit-consistency loss against the Target logits
	// (MSELogitsInto).
	LossMSE
)

// LossRowOf is one row of a batched loss: the loss that scores it, its target
// and its weight. CE and MSE rows scale their gradient and loss by Weight;
// soft rows scale by Weight·Temperature² (Hinton scaling, so soft and hard
// gradients stay commensurate as T grows).
type LossRowOf[T tensor.Float] struct {
	Kind LossKind
	// Label is the LossCE class.
	Label int
	// Target is the LossSoft teacher logits or the LossMSE target logits,
	// one value per class.
	Target []T
	// Temperature is the LossSoft softening temperature (≤ 0 means 1 for
	// the softening; the T² scale uses the value as given).
	Temperature float64
	Weight      float64
}

// LossRow is the fast-tier loss row.
type LossRow = LossRowOf[float32]

// LossRowsInto is the row-wise loss stage of batched training: row r of the
// [N, C] logit matrix is scored by rows[r], its weighted gradient lands in
// the matching row of grad, and the returned loss is the weighted sum over
// rows in ascending row order. grad == logits is allowed (the batched
// training path reuses the logit matrix as its gradient buffer). Each row
// runs its 1-D kernel's exact expression sequence followed by the weight
// scale, so a batched step scores every row bit-identically to the
// per-sample loop it replaces. ws lends the soft rows' teacher-distribution
// scratch (a nil ws allocates it).
func LossRowsInto[T tensor.Float](logits *tensor.Of[T], rows []LossRowOf[T], grad *tensor.Of[T], ws *tensor.WorkspaceOf[T]) (loss float64) {
	if logits.NDim() != 2 {
		panic(fmt.Sprintf("nn: LossRowsInto expects 2-D logits, got %v", logits.Shape()))
	}
	n, c := logits.Dim(0), logits.Dim(1)
	if len(rows) != n {
		panic(fmt.Sprintf("nn: LossRowsInto got %d loss rows for %d logit rows", len(rows), n))
	}
	if grad.Len() != logits.Len() {
		panic(fmt.Sprintf("nn: LossRowsInto grad size %d, want %d", grad.Len(), logits.Len()))
	}
	var scratch *tensor.Of[T]
	ld, gd := logits.Data(), grad.Data()
	for r, row := range rows {
		lr, gr := ld[r*c:(r+1)*c], gd[r*c:(r+1)*c]
		scale := row.Weight
		var l float64
		switch row.Kind {
		case LossCE:
			if row.Label < 0 || row.Label >= c {
				panic(fmt.Sprintf("nn: label %d out of range for %d classes (row %d)", row.Label, c, r))
			}
			l = crossEntropyRow(lr, row.Label, gr)
		case LossSoft:
			checkTarget(row.Target, c, r)
			if scratch == nil {
				scratch = ws.Get(c)
			}
			l = softCrossEntropyRow(lr, row.Target, row.Temperature, gr, scratch.Data())
			scale = row.Weight * row.Temperature * row.Temperature
		case LossMSE:
			checkTarget(row.Target, c, r)
			l = mseRow(lr, row.Target, gr)
		default:
			panic(fmt.Sprintf("nn: unknown loss kind %d (row %d)", row.Kind, r))
		}
		if scale != 1 {
			s := T(scale)
			for i := range gr {
				gr[i] *= s
			}
		}
		loss += l * scale
	}
	ws.Put(scratch)
	return loss
}

func checkTarget[T tensor.Float](target []T, c, r int) {
	if len(target) != c {
		panic(fmt.Sprintf("nn: loss row %d target has %d values for %d classes", r, len(target), c))
	}
}

// SoftCrossEntropy is the knowledge-distillation loss: the cross-entropy of
// the temperature-softened teacher distribution p = softmax(teacher/T) under
// the student distribution q = softmax(student/T). It returns the loss and
// its exact gradient with respect to the student logits, (q−p)/T. Callers
// that want Hinton's conventional T² loss scaling (so soft and hard gradients
// stay commensurate as T grows) should multiply the gradient by T².
func SoftCrossEntropy[T tensor.Float](student, teacher *tensor.Of[T], temperature float64) (loss float64, grad *tensor.Of[T]) {
	grad = tensor.NewOf[T](student.Len())
	loss = SoftCrossEntropyInto(student, teacher, temperature, grad, tensor.NewOf[T](teacher.Len()))
	return loss, grad
}

// SoftCrossEntropyInto is SoftCrossEntropy writing the gradient into a
// caller-owned tensor (overwritten). scratch must match teacher in size and
// is clobbered with the softened teacher distribution; reusing both buffers
// makes the distillation step alloc-free.
func SoftCrossEntropyInto[T tensor.Float](student, teacher *tensor.Of[T], temperature float64, grad, scratch *tensor.Of[T]) (loss float64) {
	if student.Len() != teacher.Len() {
		panic(fmt.Sprintf("nn: SoftCrossEntropy size mismatch %v vs %v", student.Shape(), teacher.Shape()))
	}
	n := student.Len()
	if grad.Len() != n || scratch.Len() != n {
		panic(fmt.Sprintf("nn: SoftCrossEntropyInto grad size %d, scratch size %d, want %d", grad.Len(), scratch.Len(), n))
	}
	return softCrossEntropyRow(student.Data(), teacher.Data(), temperature, grad.Data(), scratch.Data())
}

// softCrossEntropyRow is the distillation kernel over one row; p receives
// the softened teacher distribution and grad may alias student.
func softCrossEntropyRow[T tensor.Float](student, teacher []T, temperature float64, grad, p []T) (loss float64) {
	if temperature <= 0 {
		temperature = 1
	}
	invT := T(1 / temperature)
	for i := range student {
		grad[i] = student[i] * invT
		p[i] = teacher[i] * invT
	}
	tensor.LogSoftmaxRow(grad, grad) // grad = logQ
	tensor.SoftmaxRow(p, p)
	for i, logQ := range grad {
		loss -= float64(p[i]) * float64(logQ)
		grad[i] = (T(math.Exp(float64(logQ))) - p[i]) * invT
	}
	return loss
}

// MSELogits is the Dark Experience Replay consistency loss: mean squared
// error between current logits and stored logits, with gradient.
func MSELogits[T tensor.Float](logits, target *tensor.Of[T]) (loss float64, grad *tensor.Of[T]) {
	grad = tensor.NewOf[T](logits.Len())
	loss = MSELogitsInto(logits, target, grad)
	return loss, grad
}

// MSELogitsInto is MSELogits writing the gradient into a caller-owned tensor
// (overwritten), for alloc-free replay steps.
func MSELogitsInto[T tensor.Float](logits, target, grad *tensor.Of[T]) (loss float64) {
	if logits.Len() != target.Len() {
		panic(fmt.Sprintf("nn: MSELogits size mismatch %v vs %v", logits.Shape(), target.Shape()))
	}
	if grad.Len() != logits.Len() {
		panic(fmt.Sprintf("nn: MSELogitsInto grad size %d, want %d", grad.Len(), logits.Len()))
	}
	return mseRow(logits.Data(), target.Data(), grad.Data())
}

// mseRow is the logit-consistency kernel over one row; grad may alias logits.
func mseRow[T tensor.Float](logits, target, grad []T) (loss float64) {
	n := len(logits)
	for i, v := range logits {
		d := v - target[i]
		loss += float64(d) * float64(d)
		grad[i] = 2 * d / T(n)
	}
	return loss / float64(n)
}
