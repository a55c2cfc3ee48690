// Package constraint implements GDI constraints (§3.6 of the paper):
// boolean formulas in disjunctive normal form used to filter vertices and
// edges when querying indexes and neighborhoods.
//
// A Constraint is an OR over Subconstraints; a Subconstraint is an AND over
// label conditions and property conditions. An empty Subconstraint is
// vacuously true; a Constraint with no Subconstraints matches nothing.
//
// Constraints capture the metadata version at creation time. Because
// metadata is only eventually consistent (§3.8), a transaction can ask a
// constraint whether it has become stale — whether any referenced label or
// property type was since renamed or deleted — and abort accordingly.
package constraint

import (
	"bytes"
	"fmt"
	"strings"

	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
)

// Op enumerates property comparison operators.
type Op uint8

const (
	// OpExists is true when the element carries any entry of the p-type.
	OpExists Op = iota
	// OpEq compares for equality.
	OpEq
	// OpNe compares for inequality.
	OpNe
	// OpLt is value < operand.
	OpLt
	// OpLe is value <= operand.
	OpLe
	// OpGt is value > operand.
	OpGt
	// OpGe is value >= operand.
	OpGe
	// OpPrefix is true when a string/bytes value starts with the operand.
	OpPrefix
)

// String returns the operator's symbol.
func (o Op) String() string {
	switch o {
	case OpExists:
		return "exists"
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpPrefix:
		return "prefix"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// LabelCond requires the presence (or absence) of a label.
type LabelCond struct {
	Label  lpg.LabelID
	Absent bool
}

// PropCond compares entries of one property type against an operand.
// Multi-valued properties satisfy the condition if any entry does.
type PropCond struct {
	PType    lpg.PTypeID
	Datatype lpg.Datatype
	Op       Op
	Operand  []byte
}

// Subconstraint is a conjunction of conditions.
type Subconstraint struct {
	Labels []LabelCond
	Props  []PropCond
}

// Constraint is a disjunction of subconstraints plus the metadata version it
// was built against.
type Constraint struct {
	Subs    []Subconstraint
	Version uint64
}

// New creates an empty constraint bound to the registry's current version.
func New(reg *metadata.Registry) *Constraint {
	return &Constraint{Version: reg.Version()}
}

// AddSubconstraint appends sub and returns its index.
func (c *Constraint) AddSubconstraint(sub Subconstraint) int {
	c.Subs = append(c.Subs, sub)
	return len(c.Subs) - 1
}

// AddLabelCond adds a label condition to subconstraint i.
func (c *Constraint) AddLabelCond(i int, cond LabelCond) {
	c.Subs[i].Labels = append(c.Subs[i].Labels, cond)
}

// AddPropCond adds a property condition to subconstraint i.
func (c *Constraint) AddPropCond(i int, cond PropCond) {
	c.Subs[i].Props = append(c.Subs[i].Props, cond)
}

// Stale reports whether the registry has mutated since the constraint was
// built and any referenced label/p-type no longer resolves — the staleness
// verification of §3.6/§3.8.
func (c *Constraint) Stale(reg *metadata.Registry) bool {
	if reg.Version() == c.Version {
		return false
	}
	for _, sub := range c.Subs {
		for _, lc := range sub.Labels {
			if _, ok := reg.LabelByID(lc.Label); !ok {
				return true
			}
		}
		for _, pc := range sub.Props {
			if _, ok := reg.PTypeByID(pc.PType); !ok {
				return true
			}
		}
	}
	return false
}

// Eval evaluates the constraint against an element's labels and properties.
// A nil constraint matches everything.
func (c *Constraint) Eval(labels []lpg.LabelID, props []lpg.Property) bool {
	if c == nil {
		return true
	}
	for _, sub := range c.Subs {
		if sub.eval(labels, props) {
			return true
		}
	}
	return false
}

func (sub *Subconstraint) eval(labels []lpg.LabelID, props []lpg.Property) bool {
	for _, lc := range sub.Labels {
		has := false
		for _, l := range labels {
			if l == lc.Label {
				has = true
				break
			}
		}
		if has == lc.Absent {
			return false
		}
	}
	for _, pc := range sub.Props {
		if !pc.eval(props) {
			return false
		}
	}
	return true
}

func (pc *PropCond) eval(props []lpg.Property) bool {
	for _, p := range props {
		if p.PType != pc.PType {
			continue
		}
		if pc.Op == OpExists {
			return true
		}
		if compare(pc.Datatype, pc.Op, p.Value, pc.Operand) {
			return true
		}
	}
	return false
}

// EvalEntries evaluates the constraint in place on an encoded label/property
// entry region (the format of lpg.IterEntries): the answer Eval gives on the
// region's decoded labels and properties, without materializing either — the
// form a frontier expansion filters thousands of holders with. The region is
// validated first, so a malformed one is an error, never a partial answer.
// A nil constraint matches everything.
func (c *Constraint) EvalEntries(region []byte) (bool, error) {
	if c == nil {
		return true, nil
	}
	if err := lpg.CheckEntries(region); err != nil {
		return false, err
	}
	for i := range c.Subs {
		if c.Subs[i].evalEntries(region) {
			return true, nil
		}
	}
	return false, nil
}

// evalEntries is eval over a validated entry region: one in-place scan per
// condition, stopping at the first entry that decides it.
func (sub *Subconstraint) evalEntries(region []byte) bool {
	for _, lc := range sub.Labels {
		has := false
		it := lpg.IterEntries(region)
		for id, payload, ok := it.Next(); ok && !has; id, payload, ok = it.Next() {
			if id == lpg.IDLabel {
				l, _ := lpg.EntryLabel(payload)
				has = l == lc.Label
			}
		}
		if has == lc.Absent {
			return false
		}
	}
	for i := range sub.Props {
		pc := &sub.Props[i]
		match := false
		it := lpg.IterEntries(region)
		for id, payload, ok := it.Next(); ok && !match; id, payload, ok = it.Next() {
			if id != lpg.IDLabel && lpg.PTypeID(id) == pc.PType {
				match = pc.Op == OpExists || compare(pc.Datatype, pc.Op, payload, pc.Operand)
			}
		}
		if !match {
			return false
		}
	}
	return true
}

// compare applies op between a stored value and the operand under the
// declared datatype's ordering.
func compare(dt lpg.Datatype, op Op, value, operand []byte) bool {
	if op == OpPrefix {
		return bytes.HasPrefix(value, operand)
	}
	var cmp int
	switch dt {
	case lpg.TypeUint64:
		cmp = cmpOrdered(lpg.DecodeUint64(value), lpg.DecodeUint64(operand))
	case lpg.TypeInt64, lpg.TypeDate:
		cmp = cmpOrdered(lpg.DecodeInt64(value), lpg.DecodeInt64(operand))
	case lpg.TypeFloat64:
		cmp = cmpOrdered(lpg.DecodeFloat64(value), lpg.DecodeFloat64(operand))
	case lpg.TypeBool:
		cmp = cmpOrdered(value[0], operand[0])
	default: // strings, bytes, vectors: lexicographic
		cmp = bytes.Compare(value, operand)
	}
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	default:
		return false
	}
}

func cmpOrdered[T uint64 | int64 | float64 | byte](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// String renders the constraint for diagnostics.
func (c *Constraint) String() string {
	if c == nil {
		return "true"
	}
	if len(c.Subs) == 0 {
		return "false"
	}
	var subs []string
	for _, sub := range c.Subs {
		var conds []string
		for _, lc := range sub.Labels {
			neg := ""
			if lc.Absent {
				neg = "!"
			}
			conds = append(conds, fmt.Sprintf("%slabel(%d)", neg, lc.Label))
		}
		for _, pc := range sub.Props {
			conds = append(conds, fmt.Sprintf("p%d %s %x", pc.PType, pc.Op, pc.Operand))
		}
		if len(conds) == 0 {
			conds = append(conds, "true")
		}
		subs = append(subs, "("+strings.Join(conds, " && ")+")")
	}
	return strings.Join(subs, " || ")
}
