package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/twig-sched/twig/internal/mat"
)

// Layer is one differentiable stage of a network. Forward consumes a
// batch (rows = samples) and Backward consumes the gradient of the loss
// with respect to the layer output, accumulating parameter gradients and
// returning the gradient with respect to the layer input.
//
// Ownership contract: the matrices Forward and Backward return are
// reusable workspaces owned by the layer, keyed by batch size. They stay
// valid until the layer's next Forward/Backward call with the same batch
// size; callers that need to retain results across calls must Clone
// them. This is what makes a steady-state training step allocation-free.
type Layer interface {
	Forward(x *mat.Matrix, train bool) *mat.Matrix
	Backward(gradOut *mat.Matrix) *mat.Matrix
	Params() []*Param
}

// Dense is a fully connected layer: y = x·W + b. With FuseReLU set it is
// a Dense+ReLU pair collapsed into one layer: the activation runs in the
// GEMM epilogue on Forward, and Backward folds the activation-gradient
// mask and the bias column sums into a single sweep before the gradient
// GEMMs. Both directions are bit-identical to the unfused
// Dense-then-ReLU stack (the ReLU mask "post-activation output > 0" is
// equivalent to "pre-activation input > 0").
type Dense struct {
	In, Out  int
	W        *Param // In×Out
	B        *Param // 1×Out
	FuseReLU bool

	lastX   *mat.Matrix // cached input for Backward
	lastOut *mat.Matrix // cached output (mask source when FuseReLU)

	// packW holds persistent packed weight panels (see mat.PackedB).
	// Owners that track weight epochs (bdq.Network) refresh it after
	// every weight mutation; while set, Forward runs the packed kernels
	// at any batch size and skips MulBiasAct's per-call packing —
	// bitwise identical, pack cost paid once per weight change instead
	// of once per product.
	packW *mat.PackedB

	out     workspace // y, batch×Out
	gradIn  workspace // gradient wrt input, batch×In
	gm      workspace // masked gradient, batch×Out (FuseReLU only)
	colSums []float64
}

// NewDense creates a Dense layer with He-initialised weights (suitable for
// the ReLU activations used throughout Twig) and zero biases.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   NewParam(name+".W", in, out),
		B:   NewParam(name+".B", 1, out),
	}
	d.InitHe(rng)
	return d
}

// NewDenseReLU creates a fused Dense+ReLU layer: one Layer that computes
// relu(x·W + b) without materialising the pre-activation, replacing a
// NewDense followed by NewReLU bit-for-bit.
func NewDenseReLU(name string, in, out int, rng *rand.Rand) *Dense {
	d := NewDense(name, in, out, rng)
	d.FuseReLU = true
	return d
}

// InitHe re-initialises the weights with He (Kaiming) normal init and
// zeroes the biases. Used both at construction and by transfer learning
// when the final layer is re-randomised.
func (d *Dense) InitHe(rng *rand.Rand) {
	std := math.Sqrt(2.0 / float64(d.In))
	for i := range d.W.Value.Data {
		d.W.Value.Data[i] = rng.NormFloat64() * std
	}
	d.B.Value.Zero()
}

// Forward computes y = x·W + b (relu'd when FuseReLU) for a batch x
// (rows = samples). Bias and activation are applied in the GEMM epilogue.
func (d *Dense) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense %s expects %d inputs, got %d", d.W.Name, d.In, x.Cols))
	}
	d.lastX = x
	y := d.out.get(x.Rows, d.Out)
	act := mat.ActIdentity
	if d.FuseReLU {
		act = mat.ActReLU
	}
	if d.packW != nil {
		mat.MulPackedBiasAct(y, x, d.packW, d.B.Value.Data, act)
	} else {
		mat.MulBiasAct(y, x, d.W.Value, d.B.Value.Data, act)
	}
	d.lastOut = y
	return y
}

// RefreshPack (re)builds the persistent packed weight panels from the
// current W. The caller owns the refresh discipline: call after every
// weight mutation (bdq.Network keys this on its weight epoch), or never
// — a Dense without packs stays on the per-call packing path.
func (d *Dense) RefreshPack() {
	if d.packW == nil {
		d.packW = &mat.PackedB{}
	}
	d.packW.RepackFrom(d.W.Value)
}

// Pack returns the persistent packed panels, or nil before the first
// RefreshPack. Pooled grouped products share these panels with the
// layer's own Forward.
func (d *Dense) Pack() *mat.PackedB { return d.packW }

// ClearPack drops the persistent panels; Forward falls back to
// MulBiasAct's per-call packing.
func (d *Dense) ClearPack() { d.packW = nil }

// Backward accumulates dW = xᵀ·g and db = Σ_rows g, returning g·Wᵀ.
// When FuseReLU is set, g is first masked by the activation gradient;
// the mask application and the bias column sums share one sweep, and the
// weight-gradient GEMM accumulates directly into W.Grad.
func (d *Dense) Backward(gradOut *mat.Matrix) *mat.Matrix {
	if d.lastX == nil {
		panic("nn: Dense.Backward before Forward")
	}
	if d.colSums == nil {
		d.colSums = make([]float64, d.Out)
	}
	g := gradOut
	if d.FuseReLU {
		gm := d.gm.get(gradOut.Rows, gradOut.Cols)
		// Fused sweep: mask by "output > 0" (⟺ pre-activation > 0) and
		// build the bias column sums in the same row-major order as
		// ColSumsInto, so the sums are bit-identical to the unfused pair.
		for j := range d.colSums {
			d.colSums[j] = 0
		}
		for i := 0; i < gradOut.Rows; i++ {
			grow := gradOut.Row(i)
			yrow := d.lastOut.Row(i)
			mrow := gm.Row(i)
			for j, v := range grow {
				if yrow[j] > 0 {
					mrow[j] = v
					d.colSums[j] += v
				} else {
					mrow[j] = 0
				}
			}
		}
		g = gm
	} else {
		gradOut.ColSumsInto(d.colSums)
	}
	mat.MulTransAAcc(d.W.Grad, d.lastX, g)
	mat.Axpy(1, d.colSums, d.B.Grad.Data)

	gradIn := d.gradIn.get(g.Rows, d.In)
	mat.MulTransB(gradIn, g, d.W.Value)
	return gradIn
}

// Params returns the layer's weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// ReLU is the rectified linear activation, applied element-wise.
type ReLU struct {
	lastX *mat.Matrix

	out  workspace
	grad workspace
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward computes max(0, x).
func (r *ReLU) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	r.lastX = x
	y := r.out.get(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
		} else {
			y.Data[i] = 0
		}
	}
	return y
}

// Backward zeroes the gradient where the input was non-positive.
func (r *ReLU) Backward(gradOut *mat.Matrix) *mat.Matrix {
	if r.lastX == nil {
		panic("nn: ReLU.Backward before Forward")
	}
	g := r.grad.get(gradOut.Rows, gradOut.Cols)
	for i, v := range r.lastX.Data {
		if v > 0 {
			g.Data[i] = gradOut.Data[i]
		} else {
			g.Data[i] = 0
		}
	}
	return g
}

// Params returns nil: ReLU has no learnable parameters.
func (r *ReLU) Params() []*Param { return nil }

// Dropout implements inverted dropout: during training each activation is
// zeroed with probability Rate and the survivors are scaled by 1/(1−Rate)
// so that evaluation requires no rescaling. The paper uses Rate = 0.5
// after every fully connected layer.
type Dropout struct {
	Rate float64
	rng  *rand.Rand

	mask *mat.Matrix

	maskWS workspace
	out    workspace
	grad   workspace
}

// NewDropout creates a dropout layer with the given drop probability.
func NewDropout(rate float64, rng *rand.Rand) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v out of [0,1)", rate))
	}
	return &Dropout{Rate: rate, rng: rng}
}

// Forward applies the dropout mask when train is true and is the identity
// otherwise.
func (d *Dropout) Forward(x *mat.Matrix, train bool) *mat.Matrix {
	if !train || d.Rate == 0 {
		d.mask = nil
		return x
	}
	keep := 1 - d.Rate
	d.mask = d.maskWS.get(x.Rows, x.Cols)
	y := d.out.get(x.Rows, x.Cols)
	inv := 1 / keep
	for i, v := range x.Data {
		if d.rng.Float64() < keep {
			d.mask.Data[i] = inv
			y.Data[i] = v * inv
		} else {
			d.mask.Data[i] = 0
			y.Data[i] = 0
		}
	}
	return y
}

// Backward applies the same mask to the incoming gradient.
func (d *Dropout) Backward(gradOut *mat.Matrix) *mat.Matrix {
	if d.mask == nil {
		return gradOut
	}
	g := d.grad.get(gradOut.Rows, gradOut.Cols)
	mat.Hadamard(g, gradOut, d.mask)
	return g
}

// Params returns nil: Dropout has no learnable parameters.
func (d *Dropout) Params() []*Param { return nil }
