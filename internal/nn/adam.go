package nn

import (
	"math"

	"github.com/twig-sched/twig/internal/mat"
)

// Adam implements the Adam optimiser (Kingma & Ba, 2014) with the bias
// correction of the original paper. Twig uses a learning rate of 0.0025.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	// MaxGradNorm, when positive, rescales the global gradient so its
	// L2 norm does not exceed this value before the update is applied.
	MaxGradNorm float64

	step int
}

// NewAdam returns an Adam optimiser with the given learning rate and the
// standard β₁=0.9, β₂=0.999, ε=1e-8 defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one Adam update to every parameter and increments the
// internal timestep used for bias correction.
func (a *Adam) Step(params []*Param) { a.apply(params, false) }

// StepAndZeroGrad applies one Adam update and clears each parameter's
// gradient in the same pass, fusing the ZeroGrad that would otherwise
// precede the next backward pass. Gradients are write-only between the
// optimiser step and the next backward (checkpoints do not capture
// them), so step-then-zero is exactly equivalent to zero-before-reuse.
func (a *Adam) StepAndZeroGrad(params []*Param) { a.apply(params, true) }

// apply is the single-pass Adam kernel. The per-element update is the
// exact expression of the original loop — only loop-invariant
// subexpressions (β constants, bias corrections, slice headers) are
// hoisted, which does not change any rounding.
func (a *Adam) apply(params []*Param, zeroGrad bool) {
	a.step++
	if a.MaxGradNorm > 0 {
		clipGlobalNorm(params, a.MaxGradNorm)
	}
	c1 := 1 - math.Pow(a.Beta1, float64(a.step))
	c2 := 1 - math.Pow(a.Beta2, float64(a.step))
	lr, eps := a.LR, a.Epsilon
	b1, omb1 := a.Beta1, 1-a.Beta1
	b2, omb2 := a.Beta2, 1-a.Beta2
	for _, p := range params {
		if p.m == nil {
			p.m = mat.New(p.Value.Rows, p.Value.Cols)
			p.v = mat.New(p.Value.Rows, p.Value.Cols)
		}
		md, vd, pd, gd := p.m.Data, p.v.Data, p.Value.Data, p.Grad.Data
		for i, g := range gd {
			m := b1*md[i] + omb1*g
			v := b2*vd[i] + omb2*g*g
			md[i] = m
			vd[i] = v
			pd[i] -= lr * (m / c1) / (math.Sqrt(v/c2) + eps)
			if zeroGrad {
				gd[i] = 0
			}
		}
	}
}

// StepCount returns the number of updates applied so far.
func (a *Adam) StepCount() int { return a.step }

// Reset clears the optimiser timestep (moment estimates are kept on the
// parameters and cleared by ResetMoments).
func (a *Adam) Reset() { a.step = 0 }

// ResetMoments clears the per-parameter moment estimates, e.g. after
// transfer learning re-initialises a layer.
func ResetMoments(params []*Param) {
	for _, p := range params {
		p.m = nil
		p.v = nil
	}
}

func clipGlobalNorm(params []*Param, maxNorm float64) {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm <= maxNorm || norm == 0 {
		return
	}
	scale := maxNorm / norm
	for _, p := range params {
		p.Grad.Scale(scale)
	}
}
