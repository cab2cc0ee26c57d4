// Package opt implements the two gradient-descent optimizers the training
// paths use, plain SGD and the paper's Adam [10], operating on nn.Param
// lists.
package opt

import (
	"errors"
	"fmt"
	"math"

	"mobiledl/internal/nn"
)

// ErrBadHyper reports an invalid hyperparameter.
var ErrBadHyper = errors.New("opt: invalid hyperparameter")

// SGD is plain stochastic gradient descent.
type SGD struct {
	LR float64
}

var _ nn.Optimizer = (*SGD)(nil)

// NewSGD returns plain SGD with learning rate lr.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Step implements nn.Optimizer.
func (s *SGD) Step(params []*nn.Param) error {
	if s.LR <= 0 {
		return fmt.Errorf("%w: SGD learning rate %v", ErrBadHyper, s.LR)
	}
	for _, p := range params {
		v := p.Value.Data()
		g := p.Grad.Data()
		for i := range v {
			v[i] -= s.LR * g[i]
		}
	}
	return nil
}

// Adam implements Kingma & Ba's Adam optimizer [10].
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*nn.Param][]float64
	v map[*nn.Param][]float64
}

var _ nn.Optimizer = (*Adam)(nil)

// NewAdam returns Adam with the canonical defaults (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step implements nn.Optimizer.
func (a *Adam) Step(params []*nn.Param) error {
	if a.LR <= 0 || a.Beta1 < 0 || a.Beta1 >= 1 || a.Beta2 < 0 || a.Beta2 >= 1 {
		return fmt.Errorf("%w: Adam lr=%v β1=%v β2=%v", ErrBadHyper, a.LR, a.Beta1, a.Beta2)
	}
	if a.m == nil {
		a.m = make(map[*nn.Param][]float64, len(params))
		a.v = make(map[*nn.Param][]float64, len(params))
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		val := p.Value.Data()
		g := p.Grad.Data()
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(val))
			a.m[p] = m
			a.v[p] = make([]float64, len(val))
		}
		v := a.v[p]
		for i := range val {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g[i]
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g[i]*g[i]
			mh := m[i] / bc1
			vh := v[i] / bc2
			val[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
	return nil
}
