package qos

import (
	"math"
	"testing"
)

func TestPropertyValidate(t *testing.T) {
	tests := []struct {
		name    string
		prop    *Property
		wantErr bool
	}{
		{"valid", &Property{Name: "rt", Direction: Minimized, Kind: KindTime}, false},
		{"nil", nil, true},
		{"no name", &Property{Direction: Minimized, Kind: KindTime}, true},
		{"bad direction", &Property{Name: "x", Kind: KindTime}, true},
		{"bad kind", &Property{Name: "x", Direction: Maximized}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.prop.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestPropertyBetterWorse(t *testing.T) {
	rt := &Property{Name: "rt", Direction: Minimized, Kind: KindTime}
	av := &Property{Name: "av", Direction: Maximized, Kind: KindProbability}
	if !rt.Better(10, 20) || rt.Better(20, 10) {
		t.Error("minimized: smaller should be better")
	}
	if !av.Better(0.9, 0.8) || av.Better(0.8, 0.9) {
		t.Error("maximized: larger should be better")
	}
	if !rt.Worse(20, 10) {
		t.Error("Worse should mirror Better")
	}
}

func TestUnitConvert(t *testing.T) {
	got, err := Convert(1.5, Seconds, Milliseconds)
	if err != nil || got != 1500 {
		t.Errorf("Convert(1.5 s → ms) = %v, %v; want 1500", got, err)
	}
	got, err = Convert(250, Cents, Euros)
	if err != nil || math.Abs(got-2.5) > 1e-12 {
		t.Errorf("Convert(250 ct → EUR) = %v, %v; want 2.5", got, err)
	}
	got, err = Convert(95, Percent, Ratio)
	if err != nil || math.Abs(got-0.95) > 1e-12 {
		t.Errorf("Convert(95%% → ratio) = %v, %v; want 0.95", got, err)
	}
	if _, err := Convert(1, Unit{Name: "bad"}, Euros); err == nil {
		t.Error("zero-factor unit should error")
	}
}

func TestNewPropertySet(t *testing.T) {
	if _, err := NewPropertySet(); err == nil {
		t.Error("empty set should error")
	}
	p := &Property{Name: "rt", Direction: Minimized, Kind: KindTime}
	if _, err := NewPropertySet(p, p); err == nil {
		t.Error("duplicate names should error")
	}
	ps, err := NewPropertySet(p)
	if err != nil {
		t.Fatalf("NewPropertySet: %v", err)
	}
	// The set copies its inputs: later mutation of p must not leak in.
	p.Direction = Maximized
	if ps.At(0).Direction != Minimized {
		t.Error("property set should copy properties at the boundary")
	}
}

func TestStandardAndExtendedSets(t *testing.T) {
	std := StandardSet()
	if std.Len() != 5 {
		t.Fatalf("StandardSet has %d properties, want 5", std.Len())
	}
	ext := ExtendedSet()
	if ext.Len() != 8 {
		t.Fatalf("ExtendedSet has %d properties, want 8", ext.Len())
	}
	j, ok := std.Index("availability")
	if !ok || std.At(j).Direction != Maximized || std.At(j).Kind != KindProbability {
		t.Error("availability should be a maximized probability")
	}
	names := ext.Names()
	if names[0] != "responseTime" || names[7] != "energyCost" {
		t.Errorf("unexpected ExtendedSet order: %v", names)
	}
}

func TestIdentityElements(t *testing.T) {
	if identity(&Property{Kind: KindTime}) != 0 {
		t.Error("time identity should be 0")
	}
	if identity(&Property{Kind: KindProbability}) != 1 {
		t.Error("probability identity should be 1")
	}
	if !math.IsInf(identity(&Property{Kind: KindBottleneck}), 1) {
		t.Error("bottleneck identity should be +Inf")
	}
}

func TestEnumStrings(t *testing.T) {
	if Minimized.String() != "minimized" || Maximized.String() != "maximized" {
		t.Error("direction strings")
	}
	if Direction(9).String() != "Direction(9)" {
		t.Error("unknown direction string")
	}
	if KindTime.String() != "time" || KindCost.String() != "cost" ||
		KindProbability.String() != "probability" || KindBottleneck.String() != "bottleneck" {
		t.Error("kind strings")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind string")
	}
}
