package dataset

import (
	"reflect"
	"sort"
	"testing"
)

func TestStratifiedSplitPreservesRates(t *testing.T) {
	labels := make([]int, 100)
	for i := 0; i < 30; i++ {
		labels[i] = 1
	}
	train, test, err := StratifiedSplit(labels, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(train)+len(test) != 100 {
		t.Fatalf("split sizes %d+%d != 100", len(train), len(test))
	}
	countPos := func(idx []int) int {
		n := 0
		for _, i := range idx {
			n += labels[i]
		}
		return n
	}
	if got := countPos(test); got != 6 { // 20% of 30 positives
		t.Errorf("test positives = %d, want 6", got)
	}
	if got := countPos(train); got != 24 {
		t.Errorf("train positives = %d, want 24", got)
	}
}

func TestStratifiedSplitIsPartition(t *testing.T) {
	labels := []int{1, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0}
	train, test, err := StratifiedSplit(labels, 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]int(nil), train...), test...)
	sort.Ints(all)
	for i, v := range all {
		if v != i {
			t.Fatalf("not a partition: %v", all)
		}
	}
}

func TestStratifiedSplitErrors(t *testing.T) {
	if _, _, err := StratifiedSplit(nil, 0.2, 1); err == nil {
		t.Error("expected error for empty labels")
	}
	if _, _, err := StratifiedSplit([]int{1}, 1.5, 1); err == nil {
		t.Error("expected error for bad fraction")
	}
}

func TestStratifiedSplitDegenerate(t *testing.T) {
	// A single record must remain in train.
	train, test, err := StratifiedSplit([]int{1}, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(train) != 1 || len(test) != 0 {
		t.Errorf("split = %d/%d, want 1/0", len(train), len(test))
	}
}

func TestGather(t *testing.T) {
	rows := []string{"a", "b", "c", "d"}
	if got := Gather(rows, []int{3, 0, 0}); !reflect.DeepEqual(got, []string{"d", "a", "a"}) {
		t.Errorf("Gather = %v", got)
	}
	if got := Gather(rows, nil); len(got) != 0 {
		t.Errorf("Gather empty = %v", got)
	}
}
