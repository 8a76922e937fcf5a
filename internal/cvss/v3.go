package cvss

import (
	"fmt"
	"math"
	"strings"
)

// V3 metric enumerations. Values start at 1 so the zero value is invalid.
type (
	// AttackVectorV3 is the v3 AV metric.
	AttackVectorV3 int
	// AttackComplexityV3 is the v3 AC metric.
	AttackComplexityV3 int
	// PrivilegesRequiredV3 is the v3 PR metric.
	PrivilegesRequiredV3 int
	// UserInteractionV3 is the v3 UI metric.
	UserInteractionV3 int
	// ScopeV3 is the v3 S metric, new relative to v2.
	ScopeV3 int
	// ImpactV3 is the shared C/I/A impact scale of v3.
	ImpactV3 int
)

// AttackVectorV3 values. v3 splits v2's Local into Physical and Local.
const (
	AttackPhysical AttackVectorV3 = iota + 1
	AttackLocal
	AttackAdjacent
	AttackNetwork
)

// AttackComplexityV3 values.
const (
	AttackComplexityHigh AttackComplexityV3 = iota + 1
	AttackComplexityLow
)

// PrivilegesRequiredV3 values.
const (
	PrivilegesHigh PrivilegesRequiredV3 = iota + 1
	PrivilegesLow
	PrivilegesNone
)

// UserInteractionV3 values.
const (
	InteractionRequired UserInteractionV3 = iota + 1
	InteractionNone
)

// ScopeV3 values.
const (
	ScopeUnchanged ScopeV3 = iota + 1
	ScopeChanged
)

// ImpactV3 values.
const (
	ImpactV3None ImpactV3 = iota + 1
	ImpactV3Low
	ImpactV3High
)

// VectorV3 is a CVSS v3.0 base vector, e.g.
// "CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H".
type VectorV3 struct {
	AttackVector       AttackVectorV3
	AttackComplexity   AttackComplexityV3
	PrivilegesRequired PrivilegesRequiredV3
	UserInteraction    UserInteractionV3
	Scope              ScopeV3
	Confidentiality    ImpactV3
	Integrity          ImpactV3
	Availability       ImpactV3
}

func (v AttackVectorV3) weight() float64 {
	switch v {
	case AttackPhysical:
		return 0.2
	case AttackLocal:
		return 0.55
	case AttackAdjacent:
		return 0.62
	case AttackNetwork:
		return 0.85
	}
	return 0
}

func (v AttackComplexityV3) weight() float64 {
	switch v {
	case AttackComplexityHigh:
		return 0.44
	case AttackComplexityLow:
		return 0.77
	}
	return 0
}

// weight of PR depends on whether the scope changed.
func (v PrivilegesRequiredV3) weight(scope ScopeV3) float64 {
	switch v {
	case PrivilegesHigh:
		if scope == ScopeChanged {
			return 0.50
		}
		return 0.27
	case PrivilegesLow:
		if scope == ScopeChanged {
			return 0.68
		}
		return 0.62
	case PrivilegesNone:
		return 0.85
	}
	return 0
}

func (v UserInteractionV3) weight() float64 {
	switch v {
	case InteractionRequired:
		return 0.62
	case InteractionNone:
		return 0.85
	}
	return 0
}

func (v ImpactV3) weight() float64 {
	switch v {
	case ImpactV3None:
		return 0.0
	case ImpactV3Low:
		return 0.22
	case ImpactV3High:
		return 0.56
	}
	return 0
}

// Valid reports whether every metric of the vector is populated.
func (v VectorV3) Valid() bool {
	return v.AttackVector >= AttackPhysical && v.AttackVector <= AttackNetwork &&
		v.AttackComplexity >= AttackComplexityHigh && v.AttackComplexity <= AttackComplexityLow &&
		v.PrivilegesRequired >= PrivilegesHigh && v.PrivilegesRequired <= PrivilegesNone &&
		v.UserInteraction >= InteractionRequired && v.UserInteraction <= InteractionNone &&
		v.Scope >= ScopeUnchanged && v.Scope <= ScopeChanged &&
		v.Confidentiality >= ImpactV3None && v.Confidentiality <= ImpactV3High &&
		v.Integrity >= ImpactV3None && v.Integrity <= ImpactV3High &&
		v.Availability >= ImpactV3None && v.Availability <= ImpactV3High
}

// impactSubScoreBase is ISCBase = 1 - (1-C)*(1-I)*(1-A).
func (v VectorV3) impactSubScoreBase() float64 {
	c := v.Confidentiality.weight()
	i := v.Integrity.weight()
	a := v.Availability.weight()
	return 1 - (1-c)*(1-i)*(1-a)
}

// Impact returns the v3 impact subscore. For an unchanged scope it is
// 6.42*ISCBase; for a changed scope, 7.52*(ISCBase-0.029) -
// 3.25*(ISCBase-0.02)^15.
func (v VectorV3) Impact() float64 {
	iscBase := v.impactSubScoreBase()
	if v.Scope == ScopeChanged {
		return 7.52*(iscBase-0.029) - 3.25*math.Pow(iscBase-0.02, 15)
	}
	return 6.42 * iscBase
}

// Exploitability returns the v3 exploitability subscore:
// 8.22 * AV * AC * PR * UI.
func (v VectorV3) Exploitability() float64 {
	return 8.22 * v.AttackVector.weight() * v.AttackComplexity.weight() *
		v.PrivilegesRequired.weight(v.Scope) * v.UserInteraction.weight()
}

// BaseScore computes the CVSS v3.0 base score: 0 when the impact
// subscore is non-positive; otherwise Roundup(min(Impact+Exploitability,
// 10)) for an unchanged scope and Roundup(min(1.08*(Impact+
// Exploitability), 10)) for a changed one.
func (v VectorV3) BaseScore() float64 {
	impact := v.Impact()
	if impact <= 0 {
		return 0
	}
	sum := impact + v.Exploitability()
	if v.Scope == ScopeChanged {
		sum *= 1.08
	}
	return roundUp1(math.Min(sum, 10))
}

// Severity returns the severity band of the base score.
func (v VectorV3) Severity() Severity {
	return SeverityV3(v.BaseScore())
}

// String formats the vector with the mandatory "CVSS:3.0/" prefix.
func (v VectorV3) String() string {
	return string(v.Append(make([]byte, 0, 44)))
}

// Append appends the vector, as String formats it, to b and returns the
// extended buffer.
func (v VectorV3) Append(b []byte) []byte {
	b = append(b, "CVSS:3.0/AV:"...)
	b = append(b, avV3Letter(v.AttackVector)...)
	b = append(b, "/AC:"...)
	b = append(b, acV3Letter(v.AttackComplexity)...)
	b = append(b, "/PR:"...)
	b = append(b, prV3Letter(v.PrivilegesRequired)...)
	b = append(b, "/UI:"...)
	b = append(b, uiV3Letter(v.UserInteraction)...)
	b = append(b, "/S:"...)
	b = append(b, scopeV3Letter(v.Scope)...)
	b = append(b, "/C:"...)
	b = append(b, impactV3Letter(v.Confidentiality)...)
	b = append(b, "/I:"...)
	b = append(b, impactV3Letter(v.Integrity)...)
	b = append(b, "/A:"...)
	return append(b, impactV3Letter(v.Availability)...)
}

func avV3Letter(v AttackVectorV3) string {
	switch v {
	case AttackPhysical:
		return "P"
	case AttackLocal:
		return "L"
	case AttackAdjacent:
		return "A"
	case AttackNetwork:
		return "N"
	}
	return "?"
}

func acV3Letter(v AttackComplexityV3) string {
	switch v {
	case AttackComplexityHigh:
		return "H"
	case AttackComplexityLow:
		return "L"
	}
	return "?"
}

func prV3Letter(v PrivilegesRequiredV3) string {
	switch v {
	case PrivilegesHigh:
		return "H"
	case PrivilegesLow:
		return "L"
	case PrivilegesNone:
		return "N"
	}
	return "?"
}

func uiV3Letter(v UserInteractionV3) string {
	switch v {
	case InteractionRequired:
		return "R"
	case InteractionNone:
		return "N"
	}
	return "?"
}

func scopeV3Letter(v ScopeV3) string {
	switch v {
	case ScopeUnchanged:
		return "U"
	case ScopeChanged:
		return "C"
	}
	return "?"
}

func impactV3Letter(v ImpactV3) string {
	switch v {
	case ImpactV3None:
		return "N"
	case ImpactV3Low:
		return "L"
	case ImpactV3High:
		return "H"
	}
	return "?"
}

// ParseV3 parses a CVSS v3 base vector string. The "CVSS:3.0/" (or
// "CVSS:3.1/") prefix is optional so NVD JSON vectorString values and bare
// vectors both parse.
func ParseV3(s string) (VectorV3, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "CVSS:3.0/")
	s = strings.TrimPrefix(s, "CVSS:3.1/")
	var v VectorV3
	for _, part := range strings.Split(s, "/") {
		key, val, ok := strings.Cut(part, ":")
		if !ok {
			return VectorV3{}, fmt.Errorf("cvss: malformed v3 metric %q", part)
		}
		switch key {
		case "AV":
			switch val {
			case "P":
				v.AttackVector = AttackPhysical
			case "L":
				v.AttackVector = AttackLocal
			case "A":
				v.AttackVector = AttackAdjacent
			case "N":
				v.AttackVector = AttackNetwork
			default:
				return VectorV3{}, fmt.Errorf("cvss: bad AV value %q", val)
			}
		case "AC":
			switch val {
			case "H":
				v.AttackComplexity = AttackComplexityHigh
			case "L":
				v.AttackComplexity = AttackComplexityLow
			default:
				return VectorV3{}, fmt.Errorf("cvss: bad AC value %q", val)
			}
		case "PR":
			switch val {
			case "H":
				v.PrivilegesRequired = PrivilegesHigh
			case "L":
				v.PrivilegesRequired = PrivilegesLow
			case "N":
				v.PrivilegesRequired = PrivilegesNone
			default:
				return VectorV3{}, fmt.Errorf("cvss: bad PR value %q", val)
			}
		case "UI":
			switch val {
			case "R":
				v.UserInteraction = InteractionRequired
			case "N":
				v.UserInteraction = InteractionNone
			default:
				return VectorV3{}, fmt.Errorf("cvss: bad UI value %q", val)
			}
		case "S":
			switch val {
			case "U":
				v.Scope = ScopeUnchanged
			case "C":
				v.Scope = ScopeChanged
			default:
				return VectorV3{}, fmt.Errorf("cvss: bad S value %q", val)
			}
		case "C":
			imp, err := parseImpactV3(val)
			if err != nil {
				return VectorV3{}, err
			}
			v.Confidentiality = imp
		case "I":
			imp, err := parseImpactV3(val)
			if err != nil {
				return VectorV3{}, err
			}
			v.Integrity = imp
		case "A":
			imp, err := parseImpactV3(val)
			if err != nil {
				return VectorV3{}, err
			}
			v.Availability = imp
		default:
			continue // temporal/environmental metrics
		}
	}
	if !v.Valid() {
		return VectorV3{}, fmt.Errorf("cvss: incomplete v3 vector %q", s)
	}
	return v, nil
}

func parseImpactV3(val string) (ImpactV3, error) {
	switch val {
	case "N":
		return ImpactV3None, nil
	case "L":
		return ImpactV3Low, nil
	case "H":
		return ImpactV3High, nil
	}
	return 0, fmt.Errorf("cvss: bad impact value %q", val)
}

// AllV3Vectors enumerates every valid v3 base vector (4*2*3*2*2*3*3*3 =
// 2592 combinations) in a deterministic order.
func AllV3Vectors() []VectorV3 {
	out := make([]VectorV3, 0, 2592)
	for av := AttackPhysical; av <= AttackNetwork; av++ {
		for ac := AttackComplexityHigh; ac <= AttackComplexityLow; ac++ {
			for pr := PrivilegesHigh; pr <= PrivilegesNone; pr++ {
				for ui := InteractionRequired; ui <= InteractionNone; ui++ {
					for s := ScopeUnchanged; s <= ScopeChanged; s++ {
						for c := ImpactV3None; c <= ImpactV3High; c++ {
							for i := ImpactV3None; i <= ImpactV3High; i++ {
								for a := ImpactV3None; a <= ImpactV3High; a++ {
									out = append(out, VectorV3{av, ac, pr, ui, s, c, i, a})
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}
