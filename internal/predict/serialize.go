package predict

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
	"nvdclean/internal/ml"
	"nvdclean/internal/nn"
)

// Engine serialization: the trained severity backporter persists to a
// single JSON document — model weights, the CWE target encoder, and the
// held-out evaluations — so the expensive paper-scale training runs
// once and the engine is reusable as a service.

type engineJSON struct {
	Kind   string               `json:"kind"`
	Best   string               `json:"best"`
	Models map[string]modelJSON `json:"models"`
	Evals  map[string]evalJSON  `json:"evaluations"`
	CWEEnc map[string]float64   `json:"cwe_encoder"`
	Global float64              `json:"cwe_encoder_global"`
}

type modelJSON struct {
	// Exactly one of the following is set.
	Linear  []float64       `json:"linear,omitempty"`  // LR weights, intercept first
	Network json.RawMessage `json:"network,omitempty"` // nn.Network JSON
	SVR     *svrJSON        `json:"svr,omitempty"`
}

type svrJSON struct {
	Gamma   float64     `json:"gamma"`
	C       float64     `json:"c"`
	Centers [][]float64 `json:"centers"`
	Alphas  []float64   `json:"alphas"`
}

type evalJSON struct {
	AE, AER, Accuracy float64
	ByClass           map[string]float64
}

// WriteJSON persists the engine.
func (e *Engine) WriteJSON(w io.Writer) error {
	ej := engineJSON{
		Kind:   "severity-engine",
		Best:   e.best.String(),
		Models: make(map[string]modelJSON, len(e.models)),
		Evals:  make(map[string]evalJSON, len(e.evals)),
		CWEEnc: make(map[string]float64, len(e.enc.value)),
		Global: e.enc.global,
	}
	for id, v := range e.enc.value {
		ej.CWEEnc[id.String()] = v
	}
	for kind, model := range e.models {
		var mj modelJSON
		switch m := model.(type) {
		case lrAdapter:
			mj.Linear = m.m.Weights()
		case svrAdapter:
			mj.SVR = &svrJSON{Gamma: m.m.Gamma, C: m.m.C, Centers: m.m.Centers(), Alphas: m.m.Alphas()}
		case netAdapter:
			var buf bytes.Buffer
			if err := m.net.Save(&buf); err != nil {
				return fmt.Errorf("predict: saving %s: %w", kind, err)
			}
			mj.Network = json.RawMessage(buf.Bytes())
		default:
			return fmt.Errorf("predict: cannot serialize model %s (%T)", kind, model)
		}
		ej.Models[kind.String()] = mj
	}
	for kind, ev := range e.evals {
		byClass := make(map[string]float64, len(ev.ByV2Class))
		for sev, acc := range ev.ByV2Class {
			byClass[sev.String()] = acc
		}
		ej.Evals[kind.String()] = evalJSON{AE: ev.AE, AER: ev.AER, Accuracy: ev.Accuracy, ByClass: byClass}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&ej)
}

// ReadEngineJSON loads an engine written by WriteJSON.
func ReadEngineJSON(r io.Reader) (*Engine, error) {
	var ej engineJSON
	if err := json.NewDecoder(r).Decode(&ej); err != nil {
		return nil, fmt.Errorf("predict: decoding engine: %w", err)
	}
	if ej.Kind != "severity-engine" {
		return nil, fmt.Errorf("predict: unexpected kind %q", ej.Kind)
	}
	e := &Engine{
		enc:    &CWEEncoder{value: make(map[cwe.ID]float64, len(ej.CWEEnc)), global: ej.Global},
		models: make(map[ModelKind]Regressor, len(ej.Models)),
		evals:  make(map[ModelKind]*Evaluation, len(ej.Evals)),
	}
	for idStr, v := range ej.CWEEnc {
		id, err := cwe.Parse(idStr)
		if err != nil {
			return nil, fmt.Errorf("predict: encoder key %q: %w", idStr, err)
		}
		e.enc.value[id] = v
	}
	for kindStr, mj := range ej.Models {
		kind, err := parseModelKind(kindStr)
		if err != nil {
			return nil, err
		}
		switch {
		case mj.Linear != nil:
			lr, err := ml.LinearFromWeights(mj.Linear)
			if err != nil {
				return nil, fmt.Errorf("predict: %s: %w", kindStr, err)
			}
			e.models[kind] = lrAdapter{lr}
		case mj.SVR != nil:
			s, err := ml.SVRFromParameters(mj.SVR.Gamma, mj.SVR.C, mj.SVR.Centers, mj.SVR.Alphas)
			if err != nil {
				return nil, fmt.Errorf("predict: %s: %w", kindStr, err)
			}
			e.models[kind] = svrAdapter{s}
		case mj.Network != nil:
			net, err := nn.Load(bytes.NewReader(mj.Network))
			if err != nil {
				return nil, fmt.Errorf("predict: %s: %w", kindStr, err)
			}
			e.models[kind] = netAdapter{net}
		default:
			return nil, fmt.Errorf("predict: model %s has no payload", kindStr)
		}
	}
	for kindStr, ev := range ej.Evals {
		kind, err := parseModelKind(kindStr)
		if err != nil {
			return nil, err
		}
		byClass := make(map[cvss.Severity]float64, len(ev.ByClass))
		for sevStr, acc := range ev.ByClass {
			sev, ok := cvss.ParseSeverity(sevStr)
			if !ok {
				return nil, fmt.Errorf("predict: bad severity %q", sevStr)
			}
			byClass[sev] = acc
		}
		e.evals[kind] = &Evaluation{
			Model: kind, AE: ev.AE, AER: ev.AER, Accuracy: ev.Accuracy, ByV2Class: byClass,
		}
	}
	best, err := parseModelKind(ej.Best)
	if err != nil {
		return nil, err
	}
	if _, ok := e.models[best]; !ok {
		return nil, fmt.Errorf("predict: best model %q not among models", ej.Best)
	}
	e.best = best
	return e, nil
}

func parseModelKind(s string) (ModelKind, error) {
	for _, k := range AllModels() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("predict: unknown model kind %q", s)
}
