package cparse

import (
	"errors"
	"fmt"

	"pragformer/internal/clex"
)

// Error is a parse error carrying its 1-based source position. Every error
// returned by Parse is (or wraps) either a *cparse.Error or a
// *clex.Error, so batch consumers — the repo scanner's skip reports — can
// attribute failures to file:line:col without scraping message text.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("cparse: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// Position extracts the source position carried by a parse or lex error.
// ok is false when err carries no position (e.g. "no statement in input").
func Position(err error) (line, col int, ok bool) {
	var pe *Error
	if errors.As(err, &pe) {
		return pe.Line, pe.Col, true
	}
	var le *clex.Error
	if errors.As(err, &le) {
		return le.Line, le.Col, true
	}
	return 0, 0, false
}
