package cvss

import (
	"fmt"
	"strings"
)

// V2 metric enumerations. Values start at 1 so the zero value is invalid
// and missing metrics are detectable.
type (
	// AccessVectorV2 is the v2 AV metric.
	AccessVectorV2 int
	// AccessComplexityV2 is the v2 AC metric.
	AccessComplexityV2 int
	// AuthenticationV2 is the v2 Au metric.
	AuthenticationV2 int
	// ImpactV2 is the shared C/I/A impact scale of v2.
	ImpactV2 int
)

// AccessVectorV2 values.
const (
	AccessLocal AccessVectorV2 = iota + 1
	AccessAdjacent
	AccessNetwork
)

// AccessComplexityV2 values.
const (
	ComplexityHigh AccessComplexityV2 = iota + 1
	ComplexityMedium
	ComplexityLow
)

// AuthenticationV2 values.
const (
	AuthMultiple AuthenticationV2 = iota + 1
	AuthSingle
	AuthNone
)

// ImpactV2 values.
const (
	ImpactNone ImpactV2 = iota + 1
	ImpactPartial
	ImpactComplete
)

// VectorV2 is a CVSS v2 base vector, e.g. "AV:N/AC:L/Au:N/C:P/I:P/A:P".
type VectorV2 struct {
	AccessVector     AccessVectorV2
	AccessComplexity AccessComplexityV2
	Authentication   AuthenticationV2
	Confidentiality  ImpactV2
	Integrity        ImpactV2
	Availability     ImpactV2
}

// Weight tables from the CVSS v2 specification.
func (v AccessVectorV2) weight() float64 {
	switch v {
	case AccessLocal:
		return 0.395
	case AccessAdjacent:
		return 0.646
	case AccessNetwork:
		return 1.0
	}
	return 0
}

func (v AccessComplexityV2) weight() float64 {
	switch v {
	case ComplexityHigh:
		return 0.35
	case ComplexityMedium:
		return 0.61
	case ComplexityLow:
		return 0.71
	}
	return 0
}

func (v AuthenticationV2) weight() float64 {
	switch v {
	case AuthMultiple:
		return 0.45
	case AuthSingle:
		return 0.56
	case AuthNone:
		return 0.704
	}
	return 0
}

func (v ImpactV2) weight() float64 {
	switch v {
	case ImpactNone:
		return 0.0
	case ImpactPartial:
		return 0.275
	case ImpactComplete:
		return 0.660
	}
	return 0
}

// Valid reports whether every metric of the vector is populated.
func (v VectorV2) Valid() bool {
	return v.AccessVector >= AccessLocal && v.AccessVector <= AccessNetwork &&
		v.AccessComplexity >= ComplexityHigh && v.AccessComplexity <= ComplexityLow &&
		v.Authentication >= AuthMultiple && v.Authentication <= AuthNone &&
		v.Confidentiality >= ImpactNone && v.Confidentiality <= ImpactComplete &&
		v.Integrity >= ImpactNone && v.Integrity <= ImpactComplete &&
		v.Availability >= ImpactNone && v.Availability <= ImpactComplete
}

// Impact returns the v2 impact subscore:
// 10.41 * (1 - (1-C)*(1-I)*(1-A)).
func (v VectorV2) Impact() float64 {
	c := v.Confidentiality.weight()
	i := v.Integrity.weight()
	a := v.Availability.weight()
	return 10.41 * (1 - (1-c)*(1-i)*(1-a))
}

// Exploitability returns the v2 exploitability subscore:
// 20 * AccessVector * AccessComplexity * Authentication.
func (v VectorV2) Exploitability() float64 {
	return 20 * v.AccessVector.weight() * v.AccessComplexity.weight() * v.Authentication.weight()
}

// BaseScore computes the CVSS v2 base score:
//
//	round(((0.6*Impact) + (0.4*Exploitability) - 1.5) * f(Impact))
//
// where f(Impact) is 0 when Impact is 0 and 1.176 otherwise.
func (v VectorV2) BaseScore() float64 {
	impact := v.Impact()
	fImpact := 1.176
	if impact == 0 {
		fImpact = 0
	}
	score := ((0.6 * impact) + (0.4 * v.Exploitability()) - 1.5) * fImpact
	if score < 0 {
		score = 0
	}
	return roundTo1(score)
}

// Severity returns the severity band of the base score.
func (v VectorV2) Severity() Severity {
	return SeverityV2(v.BaseScore())
}

// String formats the vector in the NVD's v2 notation, e.g.
// "AV:N/AC:L/Au:N/C:P/I:P/A:P".
func (v VectorV2) String() string {
	return string(v.Append(make([]byte, 0, 26)))
}

// Append appends the vector's v2 notation, as String formats it, to b
// and returns the extended buffer.
func (v VectorV2) Append(b []byte) []byte {
	b = append(b, "AV:"...)
	b = append(b, avV2Letter(v.AccessVector)...)
	b = append(b, "/AC:"...)
	b = append(b, acV2Letter(v.AccessComplexity)...)
	b = append(b, "/Au:"...)
	b = append(b, auV2Letter(v.Authentication)...)
	b = append(b, "/C:"...)
	b = append(b, impactV2Letter(v.Confidentiality)...)
	b = append(b, "/I:"...)
	b = append(b, impactV2Letter(v.Integrity)...)
	b = append(b, "/A:"...)
	return append(b, impactV2Letter(v.Availability)...)
}

func avV2Letter(v AccessVectorV2) string {
	switch v {
	case AccessLocal:
		return "L"
	case AccessAdjacent:
		return "A"
	case AccessNetwork:
		return "N"
	}
	return "?"
}

func acV2Letter(v AccessComplexityV2) string {
	switch v {
	case ComplexityHigh:
		return "H"
	case ComplexityMedium:
		return "M"
	case ComplexityLow:
		return "L"
	}
	return "?"
}

func auV2Letter(v AuthenticationV2) string {
	switch v {
	case AuthMultiple:
		return "M"
	case AuthSingle:
		return "S"
	case AuthNone:
		return "N"
	}
	return "?"
}

func impactV2Letter(v ImpactV2) string {
	switch v {
	case ImpactNone:
		return "N"
	case ImpactPartial:
		return "P"
	case ImpactComplete:
		return "C"
	}
	return "?"
}

// ParseV2 parses a CVSS v2 base vector string, accepting the bare form
// "AV:N/AC:L/Au:N/C:P/I:P/A:P" with or without surrounding parentheses.
func ParseV2(s string) (VectorV2, error) {
	s = strings.TrimPrefix(strings.TrimSuffix(strings.TrimSpace(s), ")"), "(")
	var v VectorV2
	var seen int
	for _, part := range strings.Split(s, "/") {
		key, val, ok := strings.Cut(part, ":")
		if !ok {
			return VectorV2{}, fmt.Errorf("cvss: malformed v2 metric %q", part)
		}
		switch key {
		case "AV":
			switch val {
			case "L":
				v.AccessVector = AccessLocal
			case "A":
				v.AccessVector = AccessAdjacent
			case "N":
				v.AccessVector = AccessNetwork
			default:
				return VectorV2{}, fmt.Errorf("cvss: bad AV value %q", val)
			}
		case "AC":
			switch val {
			case "H":
				v.AccessComplexity = ComplexityHigh
			case "M":
				v.AccessComplexity = ComplexityMedium
			case "L":
				v.AccessComplexity = ComplexityLow
			default:
				return VectorV2{}, fmt.Errorf("cvss: bad AC value %q", val)
			}
		case "Au":
			switch val {
			case "M":
				v.Authentication = AuthMultiple
			case "S":
				v.Authentication = AuthSingle
			case "N":
				v.Authentication = AuthNone
			default:
				return VectorV2{}, fmt.Errorf("cvss: bad Au value %q", val)
			}
		case "C":
			imp, err := parseImpactV2(val)
			if err != nil {
				return VectorV2{}, err
			}
			v.Confidentiality = imp
		case "I":
			imp, err := parseImpactV2(val)
			if err != nil {
				return VectorV2{}, err
			}
			v.Integrity = imp
		case "A":
			imp, err := parseImpactV2(val)
			if err != nil {
				return VectorV2{}, err
			}
			v.Availability = imp
		default:
			// Temporal/environmental metrics are ignored: the paper uses
			// base metrics only.
			continue
		}
		seen++
	}
	if !v.Valid() {
		return VectorV2{}, fmt.Errorf("cvss: incomplete v2 vector %q (%d base metrics)", s, seen)
	}
	return v, nil
}

func parseImpactV2(val string) (ImpactV2, error) {
	switch val {
	case "N":
		return ImpactNone, nil
	case "P":
		return ImpactPartial, nil
	case "C":
		return ImpactComplete, nil
	}
	return 0, fmt.Errorf("cvss: bad impact value %q", val)
}

// AllV2Vectors enumerates every valid v2 base vector (3*3*3*3*3*3 = 729
// combinations) in a deterministic order. The generator samples from this
// space and tests sweep it for invariants.
func AllV2Vectors() []VectorV2 {
	out := make([]VectorV2, 0, 729)
	for av := AccessLocal; av <= AccessNetwork; av++ {
		for ac := ComplexityHigh; ac <= ComplexityLow; ac++ {
			for au := AuthMultiple; au <= AuthNone; au++ {
				for c := ImpactNone; c <= ImpactComplete; c++ {
					for i := ImpactNone; i <= ImpactComplete; i++ {
						for a := ImpactNone; a <= ImpactComplete; a++ {
							out = append(out, VectorV2{av, ac, au, c, i, a})
						}
					}
				}
			}
		}
	}
	return out
}
