package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/failpoint"
	"repro/internal/formats"
	"repro/internal/gen"
)

// The single error→status table, exercised with wrapped errors the way
// handlers actually produce them.
func TestStatusOfTable(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{nil, 200, ""},
		{fmt.Errorf("%w: x has 7 entries", formats.ErrDimension), 400, "dimension_mismatch"},
		{formats.ErrInvalidK, 400, "invalid_k"},
		{fmt.Errorf("%w: shape -1x10", gen.ErrParams), 400, "invalid_generator"},
		{fmt.Errorf("%w: bad json", ErrBadRequest), 400, "bad_request"},
		{fmt.Errorf("%w: 0123456789abcdef", ErrNotFound), 404, "not_found"},
		{fmt.Errorf("%w: 99 bytes declared, limit 64", ErrTooLarge), 413, "body_too_large"},
		{ErrNotUpdatable, 409, "not_updatable"},
		{ErrConflict, 409, "fingerprint_conflict"},
		{fmt.Errorf("%w: ELL too wide", formats.ErrBuild), 422, "unbuildable"},
		{fmt.Errorf("%w: y[3] = +Inf", ErrNonFinite), 422, "non_finite_result"},
		{ErrShuttingDown, 503, "shutting_down"},
		{context.DeadlineExceeded, 504, "deadline_exceeded"},
		{context.Canceled, StatusCanceled, "canceled"},
		{fmt.Errorf("wrap: %w", context.Canceled), StatusCanceled, "canceled"},
		{&exec.PanicError{}, 500, "kernel_panic"},
		{fmt.Errorf("site: %w", failpoint.ErrInjected), 500, "injected_fault"},
		{formats.ErrNilFormat, 500, "internal"},
		{errors.New("anything else"), 500, "internal"},
	}
	for _, c := range cases {
		status, code := StatusOf(c.err)
		if status != c.status || code != c.code {
			t.Errorf("StatusOf(%v) = %d/%s, want %d/%s", c.err, status, code, c.status, c.code)
		}
	}
}
