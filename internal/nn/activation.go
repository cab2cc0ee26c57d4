package nn

import (
	"math"
	"math/rand"

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

// NewSigmoid returns a logistic-sigmoid activation layer.
func NewSigmoid() *Activation {
	return &Activation{
		name:       "sigmoid",
		fn:         Sigmoid,
		derivFromY: func(y float64) float64 { return y * (1 - y) },
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

// Dropout zeroes activations with probability Rate during training and
// scales the survivors by 1/(1-Rate) ("inverted dropout"), so inference
// needs no rescaling.
type Dropout struct {
	rate float64
	rng  *rand.Rand
	mask *tensor.Matrix
}

var _ Layer = (*Dropout)(nil)

// NewDropout creates a dropout layer with the given drop probability in [0,1).
func NewDropout(rng *rand.Rand, rate float64) *Dropout {
	return &Dropout{rate: rate, rng: rng}
}

// Forward implements Layer. Inference (train=false) writes no state, so it
// is safe for concurrent callers.
func (d *Dropout) Forward(x *tensor.Matrix, train bool) (*tensor.Matrix, error) {
	if !train {
		return x, nil
	}
	if d.rate == 0 {
		d.mask = nil
		return x, nil
	}
	keep := 1 - d.rate
	d.mask = tensor.New(x.Rows(), x.Cols())
	md := d.mask.Data()
	for i := range md {
		if d.rng.Float64() < keep {
			md[i] = 1 / keep
		}
	}
	out, err := tensor.Mul(x, d.mask)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Backward implements Layer.
func (d *Dropout) Backward(gradOut *tensor.Matrix) (*tensor.Matrix, error) {
	if d.mask == nil {
		return gradOut, nil
	}
	return tensor.Mul(gradOut, d.mask)
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }
