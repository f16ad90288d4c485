package supervise

import (
	"errors"
	"strings"
	"testing"
)

func TestRunPassesThrough(t *testing.T) {
	if err := Run("ok", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	want := errors.New("plain failure")
	err := Run("plain", func() error { return want })
	if err != want {
		t.Fatalf("error not passed through: %v", err)
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		t.Fatal("plain error classified as panic")
	}
}

func TestRunCapturesPanic(t *testing.T) {
	err := Run("shard worker", func() error {
		panic("disk exploded")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T %v", err, err)
	}
	if pe.Name != "shard worker" || pe.Value != "disk exploded" {
		t.Fatalf("PanicError %+v", pe)
	}
	if !strings.Contains(pe.Error(), "panic in shard worker: disk exploded") {
		t.Fatalf("Error() = %q", pe.Error())
	}
	if pe.Stack == "" || !strings.Contains(pe.Stack, "goroutine") {
		t.Fatalf("stack not captured: %q", pe.Stack)
	}
	if len(pe.Stack) > maxStack {
		t.Fatalf("stack not truncated: %d bytes", len(pe.Stack))
	}
}

func TestRunCapturesErrorPanic(t *testing.T) {
	boom := errors.New("boom")
	err := Run("worker", func() error { panic(boom) })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Value != any(boom) {
		t.Fatalf("panic value %v", pe.Value)
	}
}

func TestAsErrorNil(t *testing.T) {
	if AsError("x", nil) != nil {
		t.Fatal("AsError(nil) != nil")
	}
}
