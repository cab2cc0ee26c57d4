package nn

import (
	"math"

	"mobiledl/internal/tensor"
)

// Activation is an elementwise activation layer. The derivative is expressed
// in terms of the cached *output* y, which suffices for the activations used
// here and avoids caching the input as well.
type Activation struct {
	name       string
	fn         func(float64) float64
	derivFromY func(float64) float64
	y          *tensor.Matrix
}

var _ Layer = (*Activation)(nil)

// relu is math.Max(0, v) as one comparison: the same bits for every v that is
// not a NaN (-0 and everything below become +0), and a NaN stays a NaN.
func relu(v float64) float64 {
	if v > 0 || v != v {
		return v
	}
	return 0
}

// NewReLU returns a rectified-linear activation layer.
func NewReLU() *Activation {
	return &Activation{
		name: "relu",
		fn:   relu,
		derivFromY: func(y float64) float64 {
			if y > 0 {
				return 1
			}
			return 0
		},
	}
}

// NewTanh returns a hyperbolic-tangent activation layer.
func NewTanh() *Activation {
	return &Activation{
		name:       "tanh",
		fn:         math.Tanh,
		derivFromY: func(y float64) float64 { return 1 - y*y },
	}
}

// Sigmoid is the numerically stable logistic function.
func Sigmoid(v float64) float64 {
	if v >= 0 {
		return 1 / (1 + math.Exp(-v))
	}
	e := math.Exp(v)
	return e / (1 + e)
}

// Name returns the activation's name.
func (a *Activation) Name() string { return a.name }

// Forward implements Layer. The output is cached for Backward only in train
// mode, so inference (train=false) is pure and safe for concurrent callers.
func (a *Activation) Forward(x *tensor.Matrix, train bool) (*tensor.Matrix, error) {
	y := tensor.Apply(x, a.fn)
	if train {
		a.y = y
	}
	return y, nil
}

// Backward implements Layer.
func (a *Activation) Backward(gradOut *tensor.Matrix) (*tensor.Matrix, error) {
	if a.y == nil {
		return nil, ErrNotReady
	}
	dx := gradOut.Clone()
	yd := a.y.Data()
	dd := dx.Data()
	for i := range dd {
		dd[i] *= a.derivFromY(yd[i])
	}
	return dx, nil
}

// Params implements Layer.
func (a *Activation) Params() []*Param { return nil }
