// Package baselines implements the classical machine-learning comparators of
// the paper's Table I and Section IV-A: multinomial logistic regression, a
// linear one-vs-rest SVM, a CART decision tree, a random forest, and an
// XGBoost-style second-order gradient-boosted tree ensemble. All are
// from-scratch, stdlib-only implementations.
//
// Every model satisfies the shared Classifier interface (Fit, PredictBatch,
// Classes, Predict, Name), which is the seam the serving runtime's
// BaselineBackend adapts: any fitted Classifier can be registered and served
// through the same batcher/backend path as the neural models.
package baselines

import (
	"errors"
	"fmt"

	"mobiledl/internal/tensor"
)

// ErrNotFitted is returned by Predict/PredictBatch before Fit has been called.
var ErrNotFitted = errors.New("baselines: model not fitted")

// ErrInput reports invalid training input.
var ErrInput = errors.New("baselines: invalid input")

// Classifier is the common interface over all baseline models — the single
// seam batch consumers (experiments tables, the serving BaselineBackend)
// program against.
type Classifier interface {
	// Fit trains on x (samples x features) with integer labels in [0, classes).
	Fit(x *tensor.Matrix, labels []int, classes int) error
	// PredictBatch returns per-row class scores as a freshly allocated
	// x.Rows() x Classes() matrix. Each row is a probability distribution
	// (non-negative, summing to 1); margin models (SVM, boosting) report a
	// softmax over their raw scores, so treat those as uncalibrated
	// confidences rather than true posteriors.
	PredictBatch(x *tensor.Matrix) (*tensor.Matrix, error)
	// Classes returns the class count fixed at Fit time (0 before Fit).
	Classes() int
	// Predict returns the predicted (argmax) class per row of x.
	Predict(x *tensor.Matrix) ([]int, error)
	// Name returns the display name used in reproduced tables.
	Name() string
}

func validateFit(x *tensor.Matrix, labels []int, classes int) error {
	if x.Rows() == 0 || x.Rows() != len(labels) {
		return fmt.Errorf("%w: %d rows vs %d labels", ErrInput, x.Rows(), len(labels))
	}
	if classes < 2 {
		return fmt.Errorf("%w: %d classes", ErrInput, classes)
	}
	for i, l := range labels {
		if l < 0 || l >= classes {
			return fmt.Errorf("%w: label %d at row %d out of [0,%d)", ErrInput, l, i, classes)
		}
	}
	return nil
}
