package nn

import (
	"fmt"
	"math"

	"mobiledl/internal/tensor"
)

// Loss computes a scalar training loss and its gradient w.r.t. the model
// output (logits or predictions, depending on the loss).
type Loss interface {
	// Forward returns the mean loss over the batch.
	Forward(pred *tensor.Matrix, target *tensor.Matrix) (float64, error)
	// Backward returns dLoss/dPred for the inputs of the last Forward call.
	Backward() (*tensor.Matrix, error)
}

// SoftmaxCrossEntropy fuses a row-wise softmax with categorical
// cross-entropy. Targets are one-hot rows (or general distributions).
// The fused backward is the standard (softmax - target) / batch.
type SoftmaxCrossEntropy struct {
	probs  *tensor.Matrix
	target *tensor.Matrix
}

var _ Loss = (*SoftmaxCrossEntropy)(nil)

// NewSoftmaxCrossEntropy returns a fused softmax + cross-entropy loss.
func NewSoftmaxCrossEntropy() *SoftmaxCrossEntropy { return &SoftmaxCrossEntropy{} }

// Forward implements Loss. pred holds raw logits.
func (l *SoftmaxCrossEntropy) Forward(pred, target *tensor.Matrix) (float64, error) {
	if pred.Rows() != target.Rows() || pred.Cols() != target.Cols() {
		return 0, fmt.Errorf("%w: cross-entropy %dx%d vs %dx%d",
			tensor.ErrShape, pred.Rows(), pred.Cols(), target.Rows(), target.Cols())
	}
	l.probs = tensor.Softmax(pred)
	l.target = target
	const eps = 1e-12
	var loss float64
	pd := l.probs.Data()
	td := target.Data()
	for i, t := range td {
		if t != 0 {
			loss -= t * math.Log(pd[i]+eps)
		}
	}
	return loss / float64(pred.Rows()), nil
}

// Backward implements Loss.
func (l *SoftmaxCrossEntropy) Backward() (*tensor.Matrix, error) {
	if l.probs == nil {
		return nil, ErrNotReady
	}
	grad, err := tensor.Sub(l.probs, l.target)
	if err != nil {
		return nil, err
	}
	grad.ScaleInPlace(1 / float64(grad.Rows()))
	return grad, nil
}

// DistillationLoss is the knowledge-distillation objective of Hinton et al.
// [37]: a convex combination of cross-entropy against the hard labels and
// KL-style cross-entropy against temperature-softened teacher logits.
type DistillationLoss struct {
	// T is the softmax temperature applied to both student and teacher logits.
	T float64
	// Alpha weights the soft-target term; (1-Alpha) weights the hard term.
	Alpha float64

	hard *SoftmaxCrossEntropy
	soft *SoftmaxCrossEntropy
}

var _ Loss = (*DistillationLoss)(nil)

// NewDistillationLoss builds the distillation objective with temperature t
// and soft-target weight alpha in [0,1].
func NewDistillationLoss(t, alpha float64) *DistillationLoss {
	return &DistillationLoss{
		T:     t,
		Alpha: alpha,
		hard:  NewSoftmaxCrossEntropy(),
		soft:  NewSoftmaxCrossEntropy(),
	}
}

// ForwardDistill computes the combined loss. studentLogits and teacherLogits
// are raw logits; hardTarget is one-hot.
func (l *DistillationLoss) ForwardDistill(studentLogits, teacherLogits, hardTarget *tensor.Matrix) (float64, error) {
	hardLoss, err := l.hard.Forward(studentLogits, hardTarget)
	if err != nil {
		return 0, fmt.Errorf("distill hard term: %w", err)
	}
	softenedStudent := tensor.Scale(studentLogits, 1/l.T)
	teacherProbs := tensor.Softmax(tensor.Scale(teacherLogits, 1/l.T))
	softLoss, err := l.soft.Forward(softenedStudent, teacherProbs)
	if err != nil {
		return 0, fmt.Errorf("distill soft term: %w", err)
	}
	return (1-l.Alpha)*hardLoss + l.Alpha*softLoss*l.T*l.T, nil
}

// Forward implements Loss for the hard-label-only case (teacher absent).
func (l *DistillationLoss) Forward(pred, target *tensor.Matrix) (float64, error) {
	return l.hard.Forward(pred, target)
}

// Backward implements Loss, combining both terms' gradients. The soft-term
// gradient picks up the conventional T^2 * (1/T) = T factor.
func (l *DistillationLoss) Backward() (*tensor.Matrix, error) {
	hardGrad, err := l.hard.Backward()
	if err != nil {
		return nil, err
	}
	if l.soft.probs == nil { // no distillation term this step
		return hardGrad, nil
	}
	softGrad, err := l.soft.Backward()
	if err != nil {
		return nil, err
	}
	grad := tensor.Scale(hardGrad, 1-l.Alpha)
	if err := tensor.AxpyInPlace(grad, l.Alpha*l.T, softGrad); err != nil {
		return nil, err
	}
	return grad, nil
}
