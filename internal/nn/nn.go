// Package nn is a small, deterministic neural-network library covering
// exactly what the paper's §4.3–4.4 deep-learning experiments need:
// fully connected and 1-D convolutional layers, ReLU and sigmoid
// activations, mean-squared-error loss, and the Adam optimizer
// (learning rate 0.001, the paper's setting). Everything is stdlib-only;
// weight initialization and batch shuffling use an explicit seed so
// results reproduce exactly.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"nvdclean/internal/parallel"
)

// gradChunk is the fixed number of samples per gradient-accumulation
// chunk inside a mini-batch. The batch gradient is defined as the
// chunk partial sums folded in chunk order, and the chunk layout
// depends only on this constant and the batch size — never on the
// worker count — so training is bit-identical at any concurrency.
const gradChunk = 8

// Param is a learnable tensor: a flat value slice and its gradient
// accumulator.
type Param struct {
	W []float64
	G []float64
}

func newParam(n int) *Param {
	return &Param{W: make([]float64, n), G: make([]float64, n)}
}

// Layer is one differentiable stage of a network. Forward consumes the
// previous activation; Backward consumes dLoss/dOut and returns
// dLoss/dIn, accumulating parameter gradients. replicate returns a
// worker replica: a copy that shares the weight values (read-only
// during a batch) but owns its activation scratch and, when ownGrad,
// its gradient buffers. The method is unexported, so the set of layers
// is the four this package defines, the ones Save can serialize.
type Layer interface {
	Forward(x []float64) []float64
	Backward(grad []float64) []float64
	Params() []*Param
	OutSize(inSize int) (int, error)
	replicate(ownGrad bool) Layer
}

// replicateParam shares the weight slice and, when ownGrad, allocates a
// private gradient accumulator.
func replicateParam(p *Param, ownGrad bool) *Param {
	if !ownGrad {
		return p
	}
	return &Param{W: p.W, G: make([]float64, len(p.G))}
}

// Dense is a fully connected layer: out = W·x + b.
type Dense struct {
	In, Out int
	weight  *Param // Out x In, row-major
	bias    *Param
	lastIn  []float64
}

// NewDense creates a dense layer with Glorot-uniform initialization from
// rng.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, weight: newParam(in * out), bias: newParam(out)}
	limit := math.Sqrt(6 / float64(in+out))
	for i := range d.weight.W {
		d.weight.W[i] = (rng.Float64()*2 - 1) * limit
	}
	return d
}

// Forward computes the affine map.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: dense input %d, want %d", len(x), d.In))
	}
	d.lastIn = x
	out := make([]float64, d.Out)
	for o := 0; o < d.Out; o++ {
		w := d.weight.W[o*d.In : (o+1)*d.In]
		s := d.bias.W[o]
		for i, xv := range x {
			s += w[i] * xv
		}
		out[o] = s
	}
	return out
}

// Backward accumulates gradients and returns dLoss/dIn.
func (d *Dense) Backward(grad []float64) []float64 {
	in := d.lastIn
	gin := make([]float64, d.In)
	for o := 0; o < d.Out; o++ {
		g := grad[o]
		d.bias.G[o] += g
		w := d.weight.W[o*d.In : (o+1)*d.In]
		gw := d.weight.G[o*d.In : (o+1)*d.In]
		for i := range w {
			gw[i] += g * in[i]
			gin[i] += g * w[i]
		}
	}
	return gin
}

// Params returns the weight and bias tensors.
func (d *Dense) Params() []*Param { return []*Param{d.weight, d.bias} }

// replicate implements Layer.
func (d *Dense) replicate(ownGrad bool) Layer {
	return &Dense{
		In: d.In, Out: d.Out,
		weight: replicateParam(d.weight, ownGrad),
		bias:   replicateParam(d.bias, ownGrad),
	}
}

// OutSize validates the input size and returns Out.
func (d *Dense) OutSize(inSize int) (int, error) {
	if inSize != d.In {
		return 0, fmt.Errorf("nn: dense expects %d inputs, got %d", d.In, inSize)
	}
	return d.Out, nil
}

// ReLU is the rectified linear activation.
type ReLU struct {
	lastIn []float64
}

// Forward applies max(0, x) elementwise.
func (r *ReLU) Forward(x []float64) []float64 {
	r.lastIn = x
	out := make([]float64, len(x))
	for i, v := range x {
		if v > 0 {
			out[i] = v
		}
	}
	return out
}

// Backward gates the gradient by the sign of the forward input.
func (r *ReLU) Backward(grad []float64) []float64 {
	gin := make([]float64, len(grad))
	for i, g := range grad {
		if r.lastIn[i] > 0 {
			gin[i] = g
		}
	}
	return gin
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// replicate implements Layer.
func (r *ReLU) replicate(bool) Layer { return &ReLU{} }

// OutSize is the identity.
func (r *ReLU) OutSize(inSize int) (int, error) { return inSize, nil }

// Sigmoid is the logistic activation the paper uses on the output neuron.
type Sigmoid struct {
	lastOut []float64
}

// Forward applies 1/(1+e^-x) elementwise.
func (s *Sigmoid) Forward(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = 1 / (1 + math.Exp(-v))
	}
	s.lastOut = out
	return out
}

// Backward multiplies by σ(x)(1-σ(x)).
func (s *Sigmoid) Backward(grad []float64) []float64 {
	gin := make([]float64, len(grad))
	for i, g := range grad {
		o := s.lastOut[i]
		gin[i] = g * o * (1 - o)
	}
	return gin
}

// Params returns nil: Sigmoid has no parameters.
func (s *Sigmoid) Params() []*Param { return nil }

// replicate implements Layer.
func (s *Sigmoid) replicate(bool) Layer { return &Sigmoid{} }

// OutSize is the identity.
func (s *Sigmoid) OutSize(inSize int) (int, error) { return inSize, nil }

// Conv1D is a same-padded one-dimensional convolution over a
// channels-major signal (layout: x[c*Length+p]). It is the 1-D analogue
// of the paper's 3×3 2-D convolutions, appropriate because the CVSS
// feature vector is a sequence, not an image (see DESIGN.md).
type Conv1D struct {
	InChannels, OutChannels, Kernel, Length int

	weight *Param // [out][in][k]
	bias   *Param
	lastIn []float64
}

// NewConv1D creates a convolution layer with He-uniform initialization.
func NewConv1D(inCh, outCh, kernel, length int, rng *rand.Rand) *Conv1D {
	c := &Conv1D{
		InChannels: inCh, OutChannels: outCh, Kernel: kernel, Length: length,
		weight: newParam(inCh * outCh * kernel),
		bias:   newParam(outCh),
	}
	limit := math.Sqrt(6 / float64(inCh*kernel))
	for i := range c.weight.W {
		c.weight.W[i] = (rng.Float64()*2 - 1) * limit
	}
	return c
}

func (c *Conv1D) wAt(o, i, k int) int {
	return (o*c.InChannels+i)*c.Kernel + k
}

// Forward computes the same-padded convolution.
func (c *Conv1D) Forward(x []float64) []float64 {
	if len(x) != c.InChannels*c.Length {
		panic(fmt.Sprintf("nn: conv input %d, want %d", len(x), c.InChannels*c.Length))
	}
	c.lastIn = x
	out := make([]float64, c.OutChannels*c.Length)
	pad := c.Kernel / 2
	for o := 0; o < c.OutChannels; o++ {
		for p := 0; p < c.Length; p++ {
			s := c.bias.W[o]
			for i := 0; i < c.InChannels; i++ {
				in := x[i*c.Length : (i+1)*c.Length]
				for k := 0; k < c.Kernel; k++ {
					q := p + k - pad
					if q < 0 || q >= c.Length {
						continue
					}
					s += c.weight.W[c.wAt(o, i, k)] * in[q]
				}
			}
			out[o*c.Length+p] = s
		}
	}
	return out
}

// Backward accumulates kernel gradients and returns the input gradient.
func (c *Conv1D) Backward(grad []float64) []float64 {
	gin := make([]float64, c.InChannels*c.Length)
	pad := c.Kernel / 2
	for o := 0; o < c.OutChannels; o++ {
		gout := grad[o*c.Length : (o+1)*c.Length]
		for p := 0; p < c.Length; p++ {
			g := gout[p]
			if g == 0 {
				continue
			}
			c.bias.G[o] += g
			for i := 0; i < c.InChannels; i++ {
				in := c.lastIn[i*c.Length : (i+1)*c.Length]
				gi := gin[i*c.Length : (i+1)*c.Length]
				for k := 0; k < c.Kernel; k++ {
					q := p + k - pad
					if q < 0 || q >= c.Length {
						continue
					}
					idx := c.wAt(o, i, k)
					c.weight.G[idx] += g * in[q]
					gi[q] += g * c.weight.W[idx]
				}
			}
		}
	}
	return gin
}

// Params returns the kernel and bias tensors.
func (c *Conv1D) Params() []*Param { return []*Param{c.weight, c.bias} }

// replicate implements Layer.
func (c *Conv1D) replicate(ownGrad bool) Layer {
	return &Conv1D{
		InChannels: c.InChannels, OutChannels: c.OutChannels,
		Kernel: c.Kernel, Length: c.Length,
		weight: replicateParam(c.weight, ownGrad),
		bias:   replicateParam(c.bias, ownGrad),
	}
}

// OutSize validates the input layout and returns OutChannels*Length.
func (c *Conv1D) OutSize(inSize int) (int, error) {
	if inSize != c.InChannels*c.Length {
		return 0, fmt.Errorf("nn: conv expects %d inputs, got %d", c.InChannels*c.Length, inSize)
	}
	return c.OutChannels * c.Length, nil
}

// Network is a feedforward stack of layers trained with MSE + Adam.
type Network struct {
	layers []Layer
	adam   *adamState
}

// NewNetwork validates layer size compatibility given the input size.
func NewNetwork(inSize int, layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, errors.New("nn: network needs at least one layer")
	}
	size := inSize
	for i, l := range layers {
		var err error
		size, err = l.OutSize(size)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
	}
	return &Network{layers: layers}, nil
}

// Forward runs the network on one input.
func (n *Network) Forward(x []float64) []float64 {
	for _, l := range n.layers {
		x = l.Forward(x)
	}
	return x
}

// Predict is Forward for a single scalar-output network.
func (n *Network) Predict(x []float64) float64 {
	return n.Forward(x)[0]
}

// backward propagates dLoss/dOut through the stack.
func (n *Network) backward(grad []float64) {
	for i := len(n.layers) - 1; i >= 0; i-- {
		grad = n.layers[i].Backward(grad)
	}
}

func (n *Network) params() []*Param {
	var ps []*Param
	for _, l := range n.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// replica builds a copy of the network whose layers share this
// network's weights but own their activation scratch and, when
// ownGrad, their gradient buffers.
func (n *Network) replica(ownGrad bool) *Network {
	ls := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		ls[i] = l.replicate(ownGrad)
	}
	return &Network{layers: ls}
}

// PredictBatch runs Predict over rows with up to workers goroutines
// (0 means GOMAXPROCS), using one inference replica per worker, so it
// never touches the network's own activation scratch and is safe
// beside other PredictBatch calls. Output slot i belongs to rows[i],
// so results are identical at any concurrency.
func (n *Network) PredictBatch(rows [][]float64, workers int) []float64 {
	out := make([]float64, len(rows))
	parallel.ForWith(workers, len(rows),
		func() *Network { return n.replica(false) },
		func(rep *Network, i int) { out[i] = rep.Predict(rows[i]) })
	return out
}

// TrainConfig controls SGD with Adam.
type TrainConfig struct {
	// Epochs is the number of passes over the data (paper: 100).
	Epochs int
	// BatchSize is the mini-batch size; gradients are averaged per batch.
	BatchSize int
	// LearningRate for Adam (paper: 0.001).
	LearningRate float64
	// Seed drives batch shuffling.
	Seed int64
	// Workers bounds the per-sample parallelism inside each mini-batch.
	// Zero means GOMAXPROCS. Gradients accumulate per fixed-size sample
	// chunk and fold in chunk order, so the trained weights are
	// bit-identical at any Workers setting.
	Workers int
	// OnEpoch, when set, receives the epoch index and mean training
	// loss, useful for logging and early-stop tests.
	OnEpoch func(epoch int, loss float64)
}

// Train fits the network on rows x with scalar targets y using the mean
// squared error loss (1/N)Σ(y-f(x))², the paper's objective.
//
// Within each mini-batch the per-sample forward/backward passes fan
// out across cfg.Workers goroutines: one gradient-owning replica per
// sample chunk, folded into the live parameters in chunk order before
// the Adam step. The chunk layout is a function of the batch size
// alone, which makes training deterministic across concurrency levels.
func (n *Network) Train(x [][]float64, y []float64, cfg TrainConfig) error {
	if len(x) == 0 {
		return errors.New("nn: no training rows")
	}
	if len(x) != len(y) {
		return fmt.Errorf("nn: %d rows but %d targets", len(x), len(y))
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 100
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 32
	}
	lr := cfg.LearningRate
	if lr <= 0 {
		lr = 0.001
	}
	params := n.params()
	if n.adam == nil {
		n.adam = newAdamState(params)
	}
	// One gradient-owning replica per sample chunk of a full batch.
	// Replica ci always serves chunk ci, so its buffers are exclusive
	// to one worker and the ordered fold below never depends on the
	// schedule.
	maxChunks := parallel.NumChunks(batch, gradChunk)
	reps := make([]*Network, maxChunks)
	repParams := make([][]*Param, maxChunks)
	chunkLoss := make([]float64, maxChunks)
	for ci := range reps {
		reps[ci] = n.replica(true)
		repParams[ci] = reps[ci].params()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += batch {
			end := start + batch
			if end > len(idx) {
				end = len(idx)
			}
			bs := float64(end - start)
			for _, p := range params {
				clear(p.G)
			}
			span := end - start
			nchunks := parallel.NumChunks(span, gradChunk)
			parallel.ForRange(cfg.Workers, span, gradChunk, func(cs, ce int) {
				ci := cs / gradChunk
				rep := reps[ci]
				for _, p := range repParams[ci] {
					clear(p.G)
				}
				var loss float64
				for _, i := range idx[start+cs : start+ce] {
					out := rep.Forward(x[i])
					diff := out[0] - y[i]
					loss += diff * diff
					rep.backward([]float64{2 * diff / bs})
				}
				chunkLoss[ci] = loss
			})
			// Ordered fold: chunk partials land in ascending chunk
			// order, fixing the floating-point summation order.
			for ci := 0; ci < nchunks; ci++ {
				for pi, p := range params {
					for j, g := range repParams[ci][pi].G {
						p.G[j] += g
					}
				}
				epochLoss += chunkLoss[ci]
			}
			n.adam.step(params, lr)
		}
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, epochLoss/float64(len(x)))
		}
	}
	return nil
}

// adamState holds first/second moment estimates per parameter tensor.
type adamState struct {
	m, v [][]float64
	t    int
}

func newAdamState(params []*Param) *adamState {
	s := &adamState{}
	for _, p := range params {
		s.m = append(s.m, make([]float64, len(p.W)))
		s.v = append(s.v, make([]float64, len(p.W)))
	}
	return s
}

const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

func (s *adamState) step(params []*Param, lr float64) {
	s.t++
	bc1 := 1 - math.Pow(adamBeta1, float64(s.t))
	bc2 := 1 - math.Pow(adamBeta2, float64(s.t))
	for pi, p := range params {
		m, v := s.m[pi], s.v[pi]
		for i, g := range p.G {
			m[i] = adamBeta1*m[i] + (1-adamBeta1)*g
			v[i] = adamBeta2*v[i] + (1-adamBeta2)*g*g
			mh := m[i] / bc1
			vh := v[i] / bc2
			p.W[i] -= lr * mh / (math.Sqrt(vh) + adamEps)
		}
	}
}

// MSE computes the mean squared error of predictions against targets.
func MSE(pred, y []float64) float64 {
	if len(pred) != len(y) || len(y) == 0 {
		return math.NaN()
	}
	var s float64
	for i := range y {
		d := pred[i] - y[i]
		s += d * d
	}
	return s / float64(len(y))
}
