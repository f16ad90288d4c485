// Package ptabletest holds the check the pointer-free guard tests of
// ptable, kernel and stream share.
package ptabletest

import "reflect"

// PointerFree reports whether values of type t contain nothing the
// garbage collector has to trace: no pointer, slice, string, map,
// channel, function or interface at any depth.
func PointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return PointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !PointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}
