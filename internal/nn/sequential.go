package nn

import (
	"fmt"

	"mobiledl/internal/tensor"
)

// Sequential chains layers; the output of layer i feeds layer i+1.
type Sequential struct {
	layers []Layer
}

var _ Layer = (*Sequential)(nil)

// NewSequential builds a sequential container over the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{layers: layers}
}

// Layers returns the contained layers (aliasing the internal slice is
// intentional: the compression package rewrites layers in place).
func (s *Sequential) Layers() []Layer { return s.layers }

// Append adds layers to the end of the chain.
func (s *Sequential) Append(layers ...Layer) { s.layers = append(s.layers, layers...) }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Matrix, train bool) (*tensor.Matrix, error) {
	var err error
	for i, l := range s.layers {
		x, err = l.Forward(x, train)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return x, nil
}

// Backward implements Layer.
func (s *Sequential) Backward(gradOut *tensor.Matrix) (*tensor.Matrix, error) {
	var err error
	for i := len(s.layers) - 1; i >= 0; i-- {
		gradOut, err = s.layers[i].Backward(gradOut)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return gradOut, nil
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// InferPooled runs an inference forward pass (train=false), recycling every
// intermediate activation through the shared tensor pool as soon as the next
// layer has consumed it. It relies on the Layer inference contract — each
// layer returns a freshly allocated output and retains no reference to its
// input outside train mode — which every layer in this package satisfies.
// The returned matrix is freshly allocated and owned by the caller (callers
// on a hot path may Put it when done).
func (s *Sequential) InferPooled(x *tensor.Matrix) (*tensor.Matrix, error) {
	cur := x
	for i, l := range s.layers {
		next, err := l.Forward(cur, false)
		if err != nil {
			if cur != x {
				tensor.Put(cur)
			}
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
		if cur != x && next != cur {
			tensor.Put(cur)
		}
		cur = next
	}
	if cur == x {
		// Empty (or fully identity) chain: the caller owns the result, so it
		// must not alias the input.
		return x.Clone(), nil
	}
	return cur, nil
}

// Predict runs inference (train=false) and returns the per-row argmax class.
func (s *Sequential) Predict(x *tensor.Matrix) ([]int, error) {
	out, err := s.Forward(x, false)
	if err != nil {
		return nil, err
	}
	preds := make([]int, out.Rows())
	for i := range preds {
		preds[i] = out.ArgMaxRow(i)
	}
	return preds, nil
}
