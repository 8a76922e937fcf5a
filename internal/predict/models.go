package predict

import (
	"errors"
	"fmt"

	"nvdclean/internal/ml"
	"nvdclean/internal/nn"
	"nvdclean/internal/parallel"
)

// ModelKind identifies one of the paper's four §4.3 algorithms.
type ModelKind int

// The Table 5 model zoo.
const (
	ModelLR ModelKind = iota + 1
	ModelSVR
	ModelCNN
	ModelDNN
)

// String returns the paper's abbreviation.
func (k ModelKind) String() string {
	switch k {
	case ModelLR:
		return "LR"
	case ModelSVR:
		return "SVR"
	case ModelCNN:
		return "CNN"
	case ModelDNN:
		return "DNN"
	default:
		return "?"
	}
}

// AllModels lists the zoo in Table 5 order.
func AllModels() []ModelKind {
	return []ModelKind{ModelLR, ModelSVR, ModelCNN, ModelDNN}
}

// Regressor is a fitted v3-score model. predict scores rows with up to
// workers goroutines; slot i of the result belongs to rows[i], every
// score is on the 0–10 CVSS scale, and the scores are identical at any
// worker count. The method is unexported, so the set of models is the
// three adapters below, the ones Engine.WriteJSON can serialize.
type Regressor interface {
	predict(rows [][]float64, workers int) ([]float64, error)
}

// ModelConfig tunes training cost; the zero value gives the paper's
// settings scaled to the hardware (full epochs, paper hyperparameters).
type ModelConfig struct {
	// Epochs for the deep models (paper: 100). Zero means 100.
	Epochs int
	// Compact switches the deep models to narrower Compact variants —
	// same depth, fewer filters — for tests and CI. The paper-width
	// models are the default.
	Compact bool
	// SVRMaxSamples caps the kernel centers (see ml.SVR). Zero keeps
	// the ml default.
	SVRMaxSamples int
	// Seed drives weight init and batch shuffling.
	Seed int64
	// Workers bounds training and evaluation parallelism. Zero means
	// GOMAXPROCS; trained models are bit-identical at any setting.
	Workers int
}

// trainModel fits one model kind on features x and 0–10 targets y.
func trainModel(kind ModelKind, x [][]float64, y []float64, cfg ModelConfig) (Regressor, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("predict: bad training set (%d rows, %d targets)", len(x), len(y))
	}
	switch kind {
	case ModelLR:
		lr := &ml.LinearRegression{Workers: cfg.Workers}
		if err := lr.Fit(x, y); err != nil {
			return nil, err
		}
		return lrAdapter{lr}, nil
	case ModelSVR:
		// Paper settings: RBF kernel, γ=0.1, C=2.
		s := &ml.SVR{Gamma: 0.1, C: 2, MaxSamples: cfg.SVRMaxSamples, Workers: cfg.Workers}
		if err := s.Fit(x, y); err != nil {
			return nil, err
		}
		return svrAdapter{s}, nil
	case ModelCNN, ModelDNN:
		return trainDeep(kind, x, y, cfg)
	default:
		return nil, errors.New("predict: unknown model kind")
	}
}

func trainDeep(kind ModelKind, x [][]float64, y []float64, cfg ModelConfig) (Regressor, error) {
	dim := len(x[0])
	var (
		net *nn.Network
		err error
	)
	switch {
	case kind == ModelCNN && cfg.Compact:
		net, err = nn.CompactCNN(dim, cfg.Seed)
	case kind == ModelCNN:
		net, err = nn.PaperCNN(dim, cfg.Seed)
	case cfg.Compact:
		net, err = nn.CompactDNN(dim, cfg.Seed)
	default:
		net, err = nn.PaperDNN(dim, cfg.Seed)
	}
	if err != nil {
		return nil, err
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 100
	}
	// Targets scaled into the sigmoid's (0, 1) range.
	scaled := make([]float64, len(y))
	for i, v := range y {
		scaled[i] = v / 10
	}
	tc := nn.TrainConfig{
		Epochs:       epochs,
		BatchSize:    32,
		LearningRate: 0.001, // paper's Adam setting
		Seed:         cfg.Seed,
		Workers:      cfg.Workers,
	}
	if err := net.Train(x, scaled, tc); err != nil {
		return nil, err
	}
	return netAdapter{net}, nil
}

type lrAdapter struct{ m *ml.LinearRegression }

func (a lrAdapter) predict(rows [][]float64, workers int) ([]float64, error) {
	out := make([]float64, len(rows))
	return out, parallel.ForErr(workers, len(rows), func(i int) error {
		v, err := a.m.Predict(rows[i])
		if err != nil {
			return err
		}
		out[i] = clampScore(v)
		return nil
	})
}

type svrAdapter struct{ m *ml.SVR }

func (a svrAdapter) predict(rows [][]float64, workers int) ([]float64, error) {
	s := *a.m
	s.Workers = workers
	out, err := s.PredictBatch(rows)
	if err != nil {
		return nil, err
	}
	for i, v := range out {
		out[i] = clampScore(v)
	}
	return out, nil
}

// netAdapter wraps a neural model. Network layers keep per-call
// activation scratch, so predict scores through the network's
// per-worker inference replicas, never the live network, and
// concurrent calls need no lock.
type netAdapter struct{ net *nn.Network }

func (a netAdapter) predict(rows [][]float64, workers int) ([]float64, error) {
	out := a.net.PredictBatch(rows, workers)
	for i, v := range out {
		out[i] = clampScore(v * 10)
	}
	return out, nil
}

func clampScore(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 10 {
		return 10
	}
	return v
}
