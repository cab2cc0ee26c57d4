// Package metrics implements the evaluation measures the paper reports:
// accuracy, per-class precision/recall, macro/micro F1 and confusion
// matrices.
package metrics

import (
	"errors"
	"fmt"
)

// ErrInput reports invalid metric inputs (length mismatch, empty sets).
var ErrInput = errors.New("metrics: invalid input")

// Accuracy returns the fraction of predictions equal to the true labels.
func Accuracy(pred, truth []int) (float64, error) {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0, fmt.Errorf("%w: %d predictions vs %d labels", ErrInput, len(pred), len(truth))
	}
	correct := 0
	for i, p := range pred {
		if p == truth[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred)), nil
}

// ConfusionMatrix holds counts[i][j] = samples with true class i predicted j.
type ConfusionMatrix struct {
	Classes int
	Counts  [][]int
}

// NewConfusionMatrix tabulates predictions against truth over classes.
func NewConfusionMatrix(pred, truth []int, classes int) (*ConfusionMatrix, error) {
	if len(pred) != len(truth) || len(pred) == 0 {
		return nil, fmt.Errorf("%w: %d predictions vs %d labels", ErrInput, len(pred), len(truth))
	}
	if classes <= 0 {
		return nil, fmt.Errorf("%w: %d classes", ErrInput, classes)
	}
	cm := &ConfusionMatrix{Classes: classes, Counts: make([][]int, classes)}
	for i := range cm.Counts {
		cm.Counts[i] = make([]int, classes)
	}
	for i, p := range pred {
		tr := truth[i]
		if p < 0 || p >= classes || tr < 0 || tr >= classes {
			return nil, fmt.Errorf("%w: label out of range (pred=%d truth=%d classes=%d)", ErrInput, p, tr, classes)
		}
		cm.Counts[tr][p]++
	}
	return cm, nil
}

// PrecisionRecall returns per-class precision and recall. Classes with no
// predicted (resp. true) samples get precision (resp. recall) 0.
func (cm *ConfusionMatrix) PrecisionRecall() (precision, recall []float64) {
	precision = make([]float64, cm.Classes)
	recall = make([]float64, cm.Classes)
	for c := 0; c < cm.Classes; c++ {
		tp := cm.Counts[c][c]
		var predicted, actual int
		for k := 0; k < cm.Classes; k++ {
			predicted += cm.Counts[k][c]
			actual += cm.Counts[c][k]
		}
		if predicted > 0 {
			precision[c] = float64(tp) / float64(predicted)
		}
		if actual > 0 {
			recall[c] = float64(tp) / float64(actual)
		}
	}
	return precision, recall
}

// MacroF1 returns the unweighted mean of per-class F1 scores.
func (cm *ConfusionMatrix) MacroF1() float64 {
	p, r := cm.PrecisionRecall()
	var sum float64
	for c := 0; c < cm.Classes; c++ {
		if p[c]+r[c] > 0 {
			sum += 2 * p[c] * r[c] / (p[c] + r[c])
		}
	}
	return sum / float64(cm.Classes)
}

// MicroF1 returns the micro-averaged F1, which for single-label multi-class
// classification equals accuracy.
func (cm *ConfusionMatrix) MicroF1() float64 {
	var tp, total int
	for c := 0; c < cm.Classes; c++ {
		tp += cm.Counts[c][c]
		for k := 0; k < cm.Classes; k++ {
			total += cm.Counts[c][k]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(tp) / float64(total)
}

// WeightedF1 returns the support-weighted mean of per-class F1 scores,
// the "F1" column convention used in the paper's Table I.
func (cm *ConfusionMatrix) WeightedF1() float64 {
	p, r := cm.PrecisionRecall()
	var sum float64
	var total int
	for c := 0; c < cm.Classes; c++ {
		var support int
		for k := 0; k < cm.Classes; k++ {
			support += cm.Counts[c][k]
		}
		total += support
		if p[c]+r[c] > 0 {
			sum += float64(support) * 2 * p[c] * r[c] / (p[c] + r[c])
		}
	}
	if total == 0 {
		return 0
	}
	return sum / float64(total)
}

// Report bundles the headline numbers for one classifier evaluation.
type Report struct {
	Accuracy float64
	MacroF1  float64
	MicroF1  float64
	F1       float64 // support-weighted, the paper's Table I convention
}

// Evaluate computes a full Report from predictions.
func Evaluate(pred, truth []int, classes int) (Report, error) {
	acc, err := Accuracy(pred, truth)
	if err != nil {
		return Report{}, err
	}
	cm, err := NewConfusionMatrix(pred, truth, classes)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Accuracy: acc,
		MacroF1:  cm.MacroF1(),
		MicroF1:  cm.MicroF1(),
		F1:       cm.WeightedF1(),
	}, nil
}
