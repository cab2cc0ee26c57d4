package nn

import (
	"fmt"
	"math"
	"math/rand"

	"mobiledl/internal/tensor"
)

// GRU is a gated recurrent unit layer implementing Eq. (1) of the paper
// (Cho et al. [41]), processing one sequence at a time:
//
//	r_k = sigmoid(Wr x_k + Ur h_{k-1} + br)
//	z_k = sigmoid(Wz x_k + Uz h_{k-1} + bz)
//	h~_k = tanh(W x_k + U (r_k ⊙ h_{k-1}) + bh)
//	h_k = z_k ⊙ h_{k-1} + (1 - z_k) ⊙ h~_k
//
// ForwardSeq caches per-step activations; BackwardLast runs full
// backpropagation through time from a gradient on the final hidden state,
// which is the only state DeepMood/DEEPSERVICE consume.
//
// The step cache doubles as preallocated scratch: successive ForwardSeq
// calls rewrite the same matrices via the tensor Into kernels instead of
// allocating ~10 temporaries per timestep, so a warm GRU runs a whole
// sequence with O(1) allocations. The cache also makes a GRU inherently
// single-goroutine — one instance must not run concurrent ForwardSeq or
// BackwardLast calls (unlike Dense, whose inference path is stateless).
type GRU struct {
	inDim, hidden int

	wr, ur, br *Param
	wz, uz, bz *Param
	wh, uh, bh *Param

	steps []gruStep
	h0    *tensor.Matrix // zero initial state, reused across calls
	live  int            // steps valid for BackwardLast after the last ForwardSeq
}

// gruStep holds one timestep's activations. hPrev aliases the previous
// step's h (or the shared h0 for step 0); the rest are owned by the step and
// overwritten in place on the next ForwardSeq.
type gruStep struct {
	x, hPrev, r, z, hCand, h *tensor.Matrix
}

// NewGRU creates a GRU with Glorot-initialized kernels and zero biases.
func NewGRU(rng *rand.Rand, inDim, hidden int) *GRU {
	newKernel := func(name string, rows int) *Param {
		return NewParam(name, tensor.GlorotUniform(rng, rows, hidden))
	}
	newBias := func(name string) *Param {
		return NewParam(name, tensor.New(1, hidden))
	}
	return &GRU{
		inDim:  inDim,
		hidden: hidden,
		wr:     newKernel("gru_wr", inDim), ur: newKernel("gru_ur", hidden), br: newBias("gru_br"),
		wz: newKernel("gru_wz", inDim), uz: newKernel("gru_uz", hidden), bz: newBias("gru_bz"),
		wh: newKernel("gru_wh", inDim), uh: newKernel("gru_uh", hidden), bh: newBias("gru_bh"),
	}
}

// Params returns all nine trainable parameter matrices.
func (g *GRU) Params() []*Param {
	return []*Param{g.wr, g.ur, g.br, g.wz, g.uz, g.bz, g.wh, g.uh, g.bh}
}

// ensureSteps grows the step cache to cover T timesteps, wiring each step's
// hPrev to the previous step's h so the recurrence never copies state.
func (g *GRU) ensureSteps(T int) {
	if g.h0 == nil {
		g.h0 = tensor.New(1, g.hidden)
	}
	for len(g.steps) < T {
		prev := g.h0
		if n := len(g.steps); n > 0 {
			prev = g.steps[n-1].h
		}
		g.steps = append(g.steps, gruStep{
			x:     tensor.New(1, g.inDim),
			hPrev: prev,
			r:     tensor.New(1, g.hidden),
			z:     tensor.New(1, g.hidden),
			hCand: tensor.New(1, g.hidden),
			h:     tensor.New(1, g.hidden),
		})
	}
}

// gateInto computes dst = act(x@wx + h@wh + b) with zero allocation, fusing
// the two matmuls through the accumulate kernel.
func gateInto(dst, x, h *tensor.Matrix, wx, wh, b *Param, act func(float64) float64) error {
	if err := tensor.MatMulInto(dst, x, wx.Value); err != nil {
		return err
	}
	if err := tensor.MatMulAccInto(dst, h, wh.Value); err != nil {
		return err
	}
	if err := tensor.AddRowVectorInto(dst, dst, b.Value); err != nil {
		return err
	}
	dst.ApplyInPlace(act)
	return nil
}

// ForwardSeq consumes a T x inDim sequence and returns the final hidden
// state (1 x hidden, owned by the caller). The per-step cache is retained
// for BackwardLast and recycled by the next ForwardSeq call.
func (g *GRU) ForwardSeq(seq *tensor.Matrix) (*tensor.Matrix, error) {
	if seq.Cols() != g.inDim {
		return nil, fmt.Errorf("%w: GRU input dim %d, want %d", tensor.ErrShape, seq.Cols(), g.inDim)
	}
	if seq.Rows() == 0 {
		return nil, fmt.Errorf("%w: GRU empty sequence", tensor.ErrShape)
	}
	T := seq.Rows()
	g.ensureSteps(T)
	g.live = 0
	g.h0.Zero()
	h := g.h0
	rh := tensor.Get(1, g.hidden)
	defer tensor.Put(rh)
	for k := 0; k < T; k++ {
		st := &g.steps[k]
		copy(st.x.Data(), seq.Row(k))
		st.hPrev = h
		if err := gateInto(st.r, st.x, h, g.wr, g.ur, g.br, Sigmoid); err != nil {
			return nil, fmt.Errorf("gru step %d reset gate: %w", k, err)
		}
		if err := gateInto(st.z, st.x, h, g.wz, g.uz, g.bz, Sigmoid); err != nil {
			return nil, fmt.Errorf("gru step %d update gate: %w", k, err)
		}
		if err := tensor.MulInto(rh, st.r, h); err != nil {
			return nil, err
		}
		if err := gateInto(st.hCand, st.x, rh, g.wh, g.uh, g.bh, math.Tanh); err != nil {
			return nil, fmt.Errorf("gru step %d candidate: %w", k, err)
		}
		// h = z ⊙ hPrev + (1-z) ⊙ hCand
		hn, zd, hp, hc := st.h.Data(), st.z.Data(), h.Data(), st.hCand.Data()
		for i := range hn {
			hn[i] = zd[i]*hp[i] + (1-zd[i])*hc[i]
		}
		h = st.h
	}
	g.live = T
	return h.Clone(), nil
}

// BackwardLast backpropagates through time from dLast, the gradient of the
// loss w.r.t. the final hidden state, accumulating parameter gradients.
// It returns the gradient w.r.t. the input sequence (T x inDim). All
// per-step temporaries come from the shared tensor pool and are hoisted out
// of the time loop, so a full BPTT pass allocates only the returned matrix.
func (g *GRU) BackwardLast(dLast *tensor.Matrix) (*tensor.Matrix, error) {
	if g.live == 0 {
		return nil, ErrNotReady
	}
	if dLast.Rows() != 1 || dLast.Cols() != g.hidden {
		return nil, fmt.Errorf("%w: GRU dLast %dx%d, want 1x%d",
			tensor.ErrShape, dLast.Rows(), dLast.Cols(), g.hidden)
	}
	hid := g.hidden
	dSeq := tensor.New(g.live, g.inDim)

	scratch := []*tensor.Matrix{}
	get := func(rows, cols int) *tensor.Matrix {
		m := tensor.Get(rows, cols)
		scratch = append(scratch, m)
		return m
	}
	defer func() {
		for _, m := range scratch {
			tensor.Put(m)
		}
	}()

	dh := get(1, hid)
	copy(dh.Data(), dLast.Data())
	dhPrev := get(1, hid)
	daR, daZ, daH := get(1, hid), get(1, hid), get(1, hid)
	dRH := get(1, hid)
	rh := get(1, hid)
	dwxScr := get(g.inDim, hid)
	dwhScr := get(hid, hid)
	dxRow := get(1, g.inDim)

	for k := g.live - 1; k >= 0; k-- {
		st := &g.steps[k]
		dhPrev.Zero()

		dhd := dh.Data()
		zd, rd := st.z.Data(), st.r.Data()
		hpd, hcd := st.hPrev.Data(), st.hCand.Data()
		dhp, dar, daz, dah := dhPrev.Data(), daR.Data(), daZ.Data(), daH.Data()

		for i := 0; i < hid; i++ {
			// h = z*hPrev + (1-z)*hCand
			dz := dhd[i] * (hpd[i] - hcd[i])
			dhc := dhd[i] * (1 - zd[i])
			dhp[i] += dhd[i] * zd[i]
			// candidate pre-activation: tanh'
			dah[i] = dhc * (1 - hcd[i]*hcd[i])
			// update gate pre-activation: sigmoid'
			daz[i] = dz * zd[i] * (1 - zd[i])
		}

		// Candidate path: aH = x@Wh + (r ⊙ hPrev)@Uh + bh
		if err := tensor.MatMulTInto(dRH, daH, g.uh.Value); err != nil {
			return nil, err
		}
		drh := dRH.Data()
		for i := 0; i < hid; i++ {
			dr := drh[i] * hpd[i]
			dhp[i] += drh[i] * rd[i]
			dar[i] = dr * rd[i] * (1 - rd[i])
		}

		// Accumulate parameter gradients for the three gates.
		if err := tensor.MulInto(rh, st.r, st.hPrev); err != nil {
			return nil, err
		}
		type gateGrad struct {
			da     *tensor.Matrix
			wx, wh *Param
			b      *Param
			hIn    *tensor.Matrix
		}
		for _, gg := range []gateGrad{
			{da: daR, wx: g.wr, wh: g.ur, b: g.br, hIn: st.hPrev},
			{da: daZ, wx: g.wz, wh: g.uz, b: g.bz, hIn: st.hPrev},
			{da: daH, wx: g.wh, wh: g.uh, b: g.bh, hIn: rh},
		} {
			if err := tensor.TMatMulInto(dwxScr, st.x, gg.da); err != nil {
				return nil, err
			}
			if err := gg.wx.AccumulateGrad(dwxScr); err != nil {
				return nil, err
			}
			if err := tensor.TMatMulInto(dwhScr, gg.hIn, gg.da); err != nil {
				return nil, err
			}
			if err := gg.wh.AccumulateGrad(dwhScr); err != nil {
				return nil, err
			}
			if err := gg.b.AccumulateGrad(gg.da); err != nil {
				return nil, err
			}
		}

		// Input gradient: dx = daR@Wr^T + daZ@Wz^T + daH@Wh^T.
		if err := tensor.MatMulTInto(dxRow, daR, g.wr.Value); err != nil {
			return nil, err
		}
		if err := tensor.MatMulTAccInto(dxRow, daZ, g.wz.Value); err != nil {
			return nil, err
		}
		if err := tensor.MatMulTAccInto(dxRow, daH, g.wh.Value); err != nil {
			return nil, err
		}
		copy(dSeq.Row(k), dxRow.Row(0))

		// Hidden-state gradient flowing to step k-1 also passes through the
		// recurrent kernels of the r and z gates.
		if err := tensor.MatMulTAccInto(dhPrev, daR, g.ur.Value); err != nil {
			return nil, err
		}
		if err := tensor.MatMulTAccInto(dhPrev, daZ, g.uz.Value); err != nil {
			return nil, err
		}
		dh, dhPrev = dhPrev, dh
	}
	return dSeq, nil
}
