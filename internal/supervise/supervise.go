// Package supervise contains panics so one sick goroutine cannot take
// down the whole daemon. Every scenario-owned goroutine (the replay
// framer, the run puller, shard workers, the auto-checkpoint loop)
// runs its work under Run or Recover, which convert a panic into a
// *PanicError carrying the goroutine's name, the panic value and a
// trimmed stack. The owning scenario then transitions to failed — the
// process never exits — and serve's restart policy decides whether to
// resurrect it from the latest checkpoint.
package supervise

import (
	"fmt"
	"runtime/debug"
)

// maxStack bounds the captured stack so a PanicError stays loggable
// and cheap to ship in Status JSON.
const maxStack = 4 << 10

// PanicError is a recovered panic promoted to an error.
type PanicError struct {
	// Name identifies the goroutine that panicked ("shard worker",
	// "source puller", "auto-checkpoint", ...).
	Name string
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack, truncated to a few KB.
	Stack string
}

// Error renders the one-line form used in Status and logs.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in %s: %v", e.Name, e.Value)
}

// AsError wraps a recover() value into a *PanicError, capturing the
// current stack. Call it directly inside the deferred recover so the
// stack still shows the panic site. Returns nil for a nil value so it
// can be used unconditionally: err = supervise.AsError(name, recover()).
func AsError(name string, v any) error {
	if v == nil {
		return nil
	}
	stack := debug.Stack()
	if len(stack) > maxStack {
		stack = stack[:maxStack]
	}
	return &PanicError{Name: name, Value: v, Stack: string(stack)}
}

// Run invokes fn, converting a panic into a *PanicError return. The
// normal error path is passed through untouched.
func Run(name string, fn func() error) (err error) {
	defer func() {
		if pe := AsError(name, recover()); pe != nil {
			err = pe
		}
	}()
	return fn()
}

// Go spawns fn on its own goroutine under Run and delivers the
// outcome (nil, fn's error, or a *PanicError) to done, which must be
// non-nil.
func Go(name string, fn func() error, done func(error)) {
	go func() {
		done(Run(name, fn))
	}()
}
