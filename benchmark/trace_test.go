package main

import (
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100, N: 1},
		// Two overlapping children cover [10, 50) once.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30, N: 1},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50, N: 1},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120, N: 1},
		// A grandchild reduces its parent, not the root.
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35, N: 1},
		{ID: 6, Name: "lone", Start: 200, End: 260, N: 4},
	}
	self := selfTimes(spans)
	want := map[int32]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 60}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	sum := summarize(spans)
	if st := sum["lone"]; st.P50NS != 15 || st.SelfNS != 60 {
		t.Errorf("summary of a 4-op loop span = %+v", *st)
	}
	if st := sum["root"]; st.SelfNS != 50 || st.P50NS != 100 {
		t.Errorf("summary of root = %+v", *st)
	}
}

func TestTracerOffAndOn(t *testing.T) {
	var off *tracer
	b := off.buf(8)
	if id := b.add("x", 0, 0, time.Now(), time.Now(), 1); id != 0 || off.all() != nil {
		t.Error("a nil tracer recorded a span")
	}

	on := newTracer()
	b1, b2 := on.buf(8), on.buf(8)
	t0 := time.Now()
	root := b1.reserve()
	b1.add("child", root, 7, t0, t0.Add(time.Microsecond), 1)
	b1.addID(root, "parent", 0, 7, t0, t0.Add(3*time.Microsecond), 1)
	b2.add("other", 0, 0, t0.Add(time.Millisecond), t0.Add(2*time.Millisecond), 1)
	all := on.all()
	if len(all) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(all))
	}
	if self := selfTimes(all)[root]; self != 2000 {
		t.Errorf("parent self time %d ns, want 2000", self)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, all); err != nil {
		t.Fatal(err)
	}
}
