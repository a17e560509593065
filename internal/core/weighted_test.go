package core

import (
	"testing"
	"testing/quick"
)

func sampleSet() []WeightedValue {
	return []WeightedValue{
		{V: 10, W: 5}, {V: 20, W: 5}, {V: 30, W: 10}, {V: 40, W: 5}, {V: 50, W: 5},
	}
}

func TestWeightedRank(t *testing.T) {
	s := sampleSet()
	cases := []struct {
		x    uint64
		want int64
	}{
		{5, 0}, {10, 0}, {11, 5}, {20, 5}, {30, 10}, {35, 20}, {50, 25}, {99, 30},
	}
	for _, c := range cases {
		if got := WeightedRank(s, c.x); got != c.want {
			t.Errorf("WeightedRank(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestWeightedQuantile(t *testing.T) {
	s := sampleSet() // total weight 30
	cases := []struct {
		phi  float64
		want uint64
	}{
		{0.01, 10}, {0.17, 20}, {0.5, 30}, {0.67, 40}, {0.99, 50},
	}
	for _, c := range cases {
		if got := WeightedQuantile(s, c.phi); got != c.want {
			t.Errorf("WeightedQuantile(%v) = %d, want %d", c.phi, got, c.want)
		}
	}
}

func TestWeightedQuantilesMatchSingle(t *testing.T) {
	f := func(rawW []uint8, phiBits []uint16) bool {
		if len(rawW) == 0 || len(phiBits) == 0 {
			return true
		}
		var items []WeightedValue
		for i, w := range rawW {
			items = append(items, WeightedValue{V: uint64(i * 3), W: int64(w%7 + 1)})
		}
		var phis []float64
		for _, p := range phiBits {
			phis = append(phis, float64(p%999+1)/1000)
		}
		batch := WeightedQuantiles(items, phis)
		for i, phi := range phis {
			if batch[i] != WeightedQuantile(items, phi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWeightedQuantileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WeightedQuantile on empty set did not panic")
		}
	}()
	WeightedQuantile(nil, 0.5)
}
