package constraint

import (
	"math/rand"
	"testing"

	"github.com/gdi-go/gdi/internal/lpg"
	"github.com/gdi-go/gdi/internal/metadata"
)

const (
	lPerson lpg.LabelID = 16
	lCar    lpg.LabelID = 17
	pAge    lpg.PTypeID = 20
	pName   lpg.PTypeID = 21
)

func props(age uint64, name string) []lpg.Property {
	return []lpg.Property{
		{PType: pAge, Value: lpg.EncodeUint64(age)},
		{PType: pName, Value: lpg.EncodeString(name)},
	}
}

func TestNilConstraintMatchesEverything(t *testing.T) {
	var c *Constraint
	if !c.Eval(nil, nil) {
		t.Fatal("nil constraint rejected an element")
	}
}

func TestEmptyConstraintMatchesNothing(t *testing.T) {
	c := &Constraint{}
	if c.Eval([]lpg.LabelID{lPerson}, props(40, "x")) {
		t.Fatal("empty DNF matched an element")
	}
}

func TestEmptySubconstraintMatchesEverything(t *testing.T) {
	c := &Constraint{}
	c.AddSubconstraint(Subconstraint{})
	if !c.Eval(nil, nil) {
		t.Fatal("vacuous subconstraint rejected an element")
	}
}

func TestLabelConditions(t *testing.T) {
	c := &Constraint{}
	i := c.AddSubconstraint(Subconstraint{})
	c.AddLabelCond(i, LabelCond{Label: lPerson})
	c.AddLabelCond(i, LabelCond{Label: lCar, Absent: true})
	if !c.Eval([]lpg.LabelID{lPerson}, nil) {
		t.Fatal("person without car rejected")
	}
	if c.Eval([]lpg.LabelID{lPerson, lCar}, nil) {
		t.Fatal("person with car accepted despite absence condition")
	}
	if c.Eval(nil, nil) {
		t.Fatal("unlabeled element accepted")
	}
}

func TestNumericComparisons(t *testing.T) {
	mk := func(op Op, operand uint64) *Constraint {
		c := &Constraint{}
		i := c.AddSubconstraint(Subconstraint{})
		c.AddPropCond(i, PropCond{PType: pAge, Datatype: lpg.TypeUint64, Op: op, Operand: lpg.EncodeUint64(operand)})
		return c
	}
	cases := []struct {
		op   Op
		arg  uint64
		age  uint64
		want bool
	}{
		{OpEq, 30, 30, true}, {OpEq, 30, 31, false},
		{OpNe, 30, 31, true}, {OpNe, 30, 30, false},
		{OpLt, 30, 29, true}, {OpLt, 30, 30, false},
		{OpLe, 30, 30, true}, {OpLe, 30, 31, false},
		{OpGt, 30, 31, true}, {OpGt, 30, 30, false},
		{OpGe, 30, 30, true}, {OpGe, 30, 29, false},
	}
	for _, tc := range cases {
		if got := mk(tc.op, tc.arg).Eval(nil, props(tc.age, "")); got != tc.want {
			t.Errorf("age %d %s %d = %v, want %v", tc.age, tc.op, tc.arg, got, tc.want)
		}
	}
}

func TestSignedAndFloatComparisons(t *testing.T) {
	pNeg := lpg.PTypeID(30)
	c := &Constraint{}
	i := c.AddSubconstraint(Subconstraint{})
	c.AddPropCond(i, PropCond{PType: pNeg, Datatype: lpg.TypeInt64, Op: OpLt, Operand: lpg.EncodeInt64(0)})
	if !c.Eval(nil, []lpg.Property{{PType: pNeg, Value: lpg.EncodeInt64(-5)}}) {
		t.Fatal("-5 < 0 rejected under int64 ordering")
	}
	pF := lpg.PTypeID(31)
	c2 := &Constraint{}
	i = c2.AddSubconstraint(Subconstraint{})
	c2.AddPropCond(i, PropCond{PType: pF, Datatype: lpg.TypeFloat64, Op: OpGt, Operand: lpg.EncodeFloat64(1.5)})
	if !c2.Eval(nil, []lpg.Property{{PType: pF, Value: lpg.EncodeFloat64(2.25)}}) {
		t.Fatal("2.25 > 1.5 rejected")
	}
}

func TestStringOpsAndPrefix(t *testing.T) {
	c := &Constraint{}
	i := c.AddSubconstraint(Subconstraint{})
	c.AddPropCond(i, PropCond{PType: pName, Datatype: lpg.TypeString, Op: OpPrefix, Operand: []byte("al")})
	if !c.Eval(nil, props(1, "alice")) {
		t.Fatal("prefix al did not match alice")
	}
	if c.Eval(nil, props(1, "bob")) {
		t.Fatal("prefix al matched bob")
	}
}

func TestOpExists(t *testing.T) {
	c := &Constraint{}
	i := c.AddSubconstraint(Subconstraint{})
	c.AddPropCond(i, PropCond{PType: pAge, Op: OpExists})
	if !c.Eval(nil, props(1, "x")) {
		t.Fatal("existing property not found")
	}
	if c.Eval(nil, nil) {
		t.Fatal("OpExists matched an element without the property")
	}
}

func TestMultiValuedPropertyAnyMatch(t *testing.T) {
	c := &Constraint{}
	i := c.AddSubconstraint(Subconstraint{})
	c.AddPropCond(i, PropCond{PType: pAge, Datatype: lpg.TypeUint64, Op: OpEq, Operand: lpg.EncodeUint64(7)})
	multi := []lpg.Property{
		{PType: pAge, Value: lpg.EncodeUint64(3)},
		{PType: pAge, Value: lpg.EncodeUint64(7)},
	}
	if !c.Eval(nil, multi) {
		t.Fatal("multi-entry property: no entry matched")
	}
}

func TestDisjunction(t *testing.T) {
	// (Person && age>30) || (Car)
	c := &Constraint{}
	i := c.AddSubconstraint(Subconstraint{})
	c.AddLabelCond(i, LabelCond{Label: lPerson})
	c.AddPropCond(i, PropCond{PType: pAge, Datatype: lpg.TypeUint64, Op: OpGt, Operand: lpg.EncodeUint64(30)})
	j := c.AddSubconstraint(Subconstraint{})
	c.AddLabelCond(j, LabelCond{Label: lCar})
	if !c.Eval([]lpg.LabelID{lPerson}, props(40, "")) {
		t.Fatal("first disjunct rejected")
	}
	if !c.Eval([]lpg.LabelID{lCar}, nil) {
		t.Fatal("second disjunct rejected")
	}
	if c.Eval([]lpg.LabelID{lPerson}, props(20, "")) {
		t.Fatal("young person accepted")
	}
}

// TestAgainstBruteForce cross-checks Eval against a direct evaluation of the
// DNF semantics on randomized constraints and elements.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randCond := func() (LabelCond, bool) {
		return LabelCond{Label: lpg.LabelID(16 + rng.Intn(3)), Absent: rng.Intn(2) == 0}, rng.Intn(2) == 0
	}
	for trial := 0; trial < 500; trial++ {
		c := &Constraint{}
		nSubs := rng.Intn(4)
		for s := 0; s < nSubs; s++ {
			i := c.AddSubconstraint(Subconstraint{})
			for k := rng.Intn(3); k > 0; k-- {
				lc, isLabel := randCond()
				if isLabel {
					c.AddLabelCond(i, lc)
				} else {
					c.AddPropCond(i, PropCond{
						PType: pAge, Datatype: lpg.TypeUint64,
						Op:      Op(1 + rng.Intn(6)),
						Operand: lpg.EncodeUint64(uint64(rng.Intn(5))),
					})
				}
			}
		}
		var labels []lpg.LabelID
		for l := lpg.LabelID(16); l < 19; l++ {
			if rng.Intn(2) == 0 {
				labels = append(labels, l)
			}
		}
		age := uint64(rng.Intn(5))
		ps := []lpg.Property{{PType: pAge, Value: lpg.EncodeUint64(age)}}

		want := false
		for _, sub := range c.Subs {
			ok := true
			for _, lc := range sub.Labels {
				has := false
				for _, l := range labels {
					if l == lc.Label {
						has = true
					}
				}
				if has == lc.Absent {
					ok = false
				}
			}
			for _, pc := range sub.Props {
				v := lpg.DecodeUint64(pc.Operand)
				var m bool
				switch pc.Op {
				case OpEq:
					m = age == v
				case OpNe:
					m = age != v
				case OpLt:
					m = age < v
				case OpLe:
					m = age <= v
				case OpGt:
					m = age > v
				case OpGe:
					m = age >= v
				}
				if !m {
					ok = false
				}
			}
			if ok {
				want = true
			}
		}
		if got := c.Eval(labels, ps); got != want {
			t.Fatalf("trial %d: Eval = %v, want %v for %s on labels=%v age=%d", trial, got, want, c, labels, age)
		}
		// The in-place evaluator must agree with Eval.
		if got, err := c.EvalEntries(lpg.EncodeEntries(labels, ps)); err != nil || got != want {
			t.Fatalf("trial %d: EvalEntries = %v, %v, want %v for %s on labels=%v age=%d",
				trial, got, err, want, c, labels, age)
		}
	}
}

// TestEvalEntriesRejectsMalformedRegions pins the in-place evaluator's error
// contract: a region that does not decode is an error — never a match, never
// a panic — even when the entry deciding the constraint precedes the damage.
func TestEvalEntriesRejectsMalformedRegions(t *testing.T) {
	c := &Constraint{}
	i := c.AddSubconstraint(Subconstraint{})
	c.AddPropCond(i, PropCond{PType: pAge, Datatype: lpg.TypeUint64, Op: OpGe, Operand: lpg.EncodeUint64(1)})
	ps := []lpg.Property{{PType: pAge, Value: lpg.EncodeUint64(7)}, {PType: pName, Value: []byte("x")}}
	labels := []lpg.LabelID{16}

	region := lpg.EncodeEntries(labels, ps)
	if ok, err := c.EvalEntries(region); err != nil || !ok {
		t.Fatalf("intact region = %v, %v, want match", ok, err)
	}
	if ok, err := (*Constraint)(nil).EvalEntries(region[:3]); err != nil || !ok {
		t.Fatalf("nil constraint = %v, %v, want match without looking", ok, err)
	}
	// A truncated last entry.
	if ok, err := c.EvalEntries(region[:len(region)-1]); err == nil || ok {
		t.Fatalf("truncated region = %v, %v, want an error", ok, err)
	}
	// A label entry whose payload is not a label.
	bad := lpg.AppendEntry(nil, lpg.IDLabel, []byte{0x80})
	if ok, err := c.EvalEntries(bad); err == nil || ok {
		t.Fatalf("malformed label payload = %v, %v, want an error", ok, err)
	}
}

func TestStaleness(t *testing.T) {
	reg := metadata.NewRegistry()
	l, _ := reg.AddLabel("Person")
	pt, _ := reg.AddPType("age", metadata.PTypeSpec{Datatype: lpg.TypeUint64, SizeType: lpg.SizeFixed, Limit: 8})
	c := New(reg)
	i := c.AddSubconstraint(Subconstraint{})
	c.AddLabelCond(i, LabelCond{Label: l.ID})
	c.AddPropCond(i, PropCond{PType: pt.ID, Op: OpExists})
	if c.Stale(reg) {
		t.Fatal("fresh constraint reported stale")
	}
	// An unrelated mutation does not make the constraint stale.
	reg.AddLabel("Unrelated")
	if c.Stale(reg) {
		t.Fatal("constraint stale after unrelated mutation")
	}
	// Deleting a referenced label does.
	reg.RemoveLabel("Person")
	if !c.Stale(reg) {
		t.Fatal("constraint not stale after referenced label removal")
	}
}

func TestStringRendering(t *testing.T) {
	var nilC *Constraint
	if nilC.String() != "true" {
		t.Fatalf("nil String = %q", nilC.String())
	}
	if (&Constraint{}).String() != "false" {
		t.Fatal("empty constraint should render false")
	}
	c := &Constraint{}
	c.AddSubconstraint(Subconstraint{})
	if got := c.String(); got != "(true)" {
		t.Fatalf("vacuous subconstraint renders %q", got)
	}
}
