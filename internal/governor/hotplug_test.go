package governor

import "testing"

func TestHotplugBringsCoresUpUnderLoad(t *testing.T) {
	h := NewHotplug(4)
	got := h.NextOnline(2.0, 0.95, 2)
	if got != 3 {
		t.Fatalf("NextOnline = %d want 3", got)
	}
}

func TestHotplugOfflinesWhenIdle(t *testing.T) {
	h := NewHotplug(4)
	got := h.NextOnline(2.0, 0.1, 3)
	if got != 2 {
		t.Fatalf("NextOnline = %d want 2", got)
	}
}

func TestHotplugHoldsInMidBand(t *testing.T) {
	h := NewHotplug(4)
	if got := h.NextOnline(2.0, 0.5, 2); got != 2 {
		t.Fatalf("NextOnline = %d want 2 (hold)", got)
	}
}

func TestHotplugDwellPreventsThrash(t *testing.T) {
	h := NewHotplug(4)
	first := h.NextOnline(2.0, 0.95, 1)
	if first != 2 {
		t.Fatalf("first action = %d want 2", first)
	}
	// 0.3 s later, still above threshold: dwell must block the next step.
	if got := h.NextOnline(2.3, 0.95, first); got != first {
		t.Fatalf("dwell violated: %d", got)
	}
	// After the dwell expires, the next core comes up.
	if got := h.NextOnline(3.1, 0.95, first); got != 3 {
		t.Fatalf("post-dwell action = %d want 3", got)
	}
}

func TestHotplugSaturates(t *testing.T) {
	h := NewHotplug(4)
	if got := h.NextOnline(2.0, 0.95, 4); got != 4 {
		t.Fatalf("above max: %d", got)
	}
	h2 := NewHotplug(4)
	if got := h2.NextOnline(2.0, 0.05, 1); got != 1 {
		t.Fatalf("below min: %d", got)
	}
	h3 := NewHotplug(4)
	if got := h3.NextOnline(2.0, 0.5, 99); got != 4 {
		t.Fatalf("bad input not clamped: %d", got)
	}
	h4 := NewHotplug(4)
	if got := h4.NextOnline(2.0, 0.5, 0); got != 1 {
		t.Fatalf("zero input not clamped: %d", got)
	}
}
