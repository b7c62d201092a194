// Package a is errwrap golden input: the declared-sentinel /
// %w-wrapping / errors.Is contract of a public API package.
package a

import (
	"errors"
	"fmt"
)

// Package-level sentinels are the declared failure modes; errwrap
// never flags their declarations.
var (
	ErrClosed     error = errors.New("farm closed")
	ErrNoCapacity error = errors.New("insufficient capacity")
)

func wrapOK(err error) error {
	return fmt.Errorf("farm: submit: %w", err)
}

func doubleWrapOK(err error) error {
	return fmt.Errorf("farm: %w: %w", ErrClosed, err)
}

func wrapV(err error) error {
	return fmt.Errorf("farm: submit: %v", err) // want `use %w so errors.Is/As still see the sentinel chain`
}

func wrapS(err error) error {
	return fmt.Errorf("farm: %w: %s", ErrClosed, err) // want `use %w so errors.Is/As still see the sentinel chain`
}

// Width and flag characters sit between % and the verb.
func wrapFlags(n int, err error) error {
	return fmt.Errorf("farm: rank %03d: %+v", n, err) // want `error argument formatted with %v; use %w`
}

func notAnError(n int) error {
	return fmt.Errorf("farm: %d ranks", n)
}

func adHoc() error {
	return errors.New("farm closed") // want `declare a package-level Err sentinel`
}

func compareEq(err error) bool {
	return err == ErrClosed // want `use errors.Is`
}

func compareNeq(err error) bool {
	return err != ErrNoCapacity // want `use errors.Is`
}

func nilChecksPass(err error) bool {
	return err == nil || nil != err
}

func isPass(err error) bool {
	return errors.Is(err, ErrClosed)
}

func allowed(err error) error {
	//detlint:allow errwrap -- golden test: deliberately opaque wrap
	return fmt.Errorf("farm: %v", err)
}
