// Package nn implements the neural-network substrate used throughout this
// repository: dense layers, activations, the GRU recurrent layer (Eq. 1 of
// the paper), losses, and a minibatch training loop. Gradients are
// computed by hand-written backpropagation; correctness is validated against
// numerical differentiation in the test suite.
package nn

import (
	"errors"
	"fmt"

	"mobiledl/internal/tensor"
)

// ErrNotReady is returned when Backward is called before Forward.
var ErrNotReady = errors.New("nn: backward called before forward")

// Param is a trainable parameter: a value matrix and its accumulated
// gradient. Optimizers mutate Value in place and read/zero Grad.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// NewParam wraps a freshly initialized value matrix with a zero gradient.
func NewParam(name string, value *tensor.Matrix) *Param {
	return &Param{
		Name:  name,
		Value: value,
		Grad:  tensor.New(value.Rows(), value.Cols()),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// AccumulateGrad adds g into the parameter's gradient buffer.
func (p *Param) AccumulateGrad(g *tensor.Matrix) error {
	if err := tensor.AddInPlace(p.Grad, g); err != nil {
		return fmt.Errorf("param %s: %w", p.Name, err)
	}
	return nil
}

// ZeroGrads clears the gradients of every parameter in params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// NumParams returns the total number of scalar parameters.
func NumParams(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Value.Size()
	}
	return n
}

// Optimizer updates parameters from their accumulated gradients.
// Implementations live in package opt; the interface is declared here so that
// training helpers in this package do not depend on the optimizer package.
type Optimizer interface {
	// Step applies one update using the gradients currently stored in params
	// and then leaves the gradients untouched (callers zero them).
	Step(params []*Param) error
}

// Layer is a differentiable module. Forward with train=true caches whatever
// Backward needs, so a layer instance is not safe for concurrent training.
// Forward with train=false must not mutate layer state: inference on a
// shared instance is safe for concurrent callers (the serving runtime's
// worker pool relies on this).
type Layer interface {
	// Forward computes the layer output for input x (batch x features).
	// train enables the state caching Backward depends on.
	Forward(x *tensor.Matrix, train bool) (*tensor.Matrix, error)
	// Backward consumes the gradient of the loss w.r.t. the layer output,
	// accumulates parameter gradients, and returns the gradient w.r.t. the
	// layer input.
	Backward(gradOut *tensor.Matrix) (*tensor.Matrix, error)
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}
