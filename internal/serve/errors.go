package serve

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/exec"
	"repro/internal/failpoint"
	"repro/internal/formats"
	"repro/internal/gen"
)

// Serving-layer errors. Together with the library's typed errors
// (formats.ErrDimension and friends, context cancellation, contained
// kernel panics, injected faults) they map to HTTP statuses in exactly
// one place: StatusOf. Handlers never invent status codes.
var (
	// ErrNotFound reports a fingerprint no hosted matrix answers to.
	ErrNotFound = errors.New("serve: matrix not found")
	// ErrNotUpdatable reports a cell update against a plain-hosted matrix.
	ErrNotUpdatable = errors.New("serve: matrix is not hosted as updatable")
	// ErrShuttingDown reports a request admitted after drain began.
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrBadRequest reports an unparseable or out-of-range request body.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrConflict reports an upload whose structure collides with a hosted
	// matrix but whose values differ: the structural fingerprint cannot
	// address both. Delete the incumbent first, or mutate it via the
	// updatable cell endpoints.
	ErrConflict = errors.New("serve: fingerprint collision with different values")
)

// StatusCanceled mirrors nginx's 499 "client closed request": the typed
// status a multiply cancelled mid-flight (caller gone, or drain deadline
// reached during shutdown) answers with. Not a standard HTTP status, but
// the de-facto one for exactly this case.
const StatusCanceled = 499

// StatusOf is the single table mapping an error to its HTTP status and a
// stable machine-readable code for the response envelope. Library errors
// a client caused — dimension mismatches on an Updatable host, bad k,
// invalid generator parameters — are 4xx, never a leaked 500; faults the
// client cannot fix — contained kernel panics, injected I/O faults — are
// 5xx with provenance preserved in the message.
func StatusOf(err error) (status int, code string) {
	var pe *exec.PanicError
	switch {
	case err == nil:
		return http.StatusOK, ""
	case errors.Is(err, formats.ErrDimension):
		return http.StatusBadRequest, "dimension_mismatch"
	case errors.Is(err, formats.ErrInvalidK):
		return http.StatusBadRequest, "invalid_k"
	case errors.Is(err, gen.ErrParams):
		return http.StatusBadRequest, "invalid_generator"
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, ErrTooLarge):
		return http.StatusRequestEntityTooLarge, "body_too_large"
	case errors.Is(err, ErrNotUpdatable):
		return http.StatusConflict, "not_updatable"
	case errors.Is(err, ErrConflict):
		return http.StatusConflict, "fingerprint_conflict"
	case errors.Is(err, formats.ErrBuild):
		return http.StatusUnprocessableEntity, "unbuildable"
	case errors.Is(err, ErrNonFinite):
		return http.StatusUnprocessableEntity, "non_finite_result"
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable, "shutting_down"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return StatusCanceled, "canceled"
	case errors.As(err, &pe):
		return http.StatusInternalServerError, "kernel_panic"
	case errors.Is(err, failpoint.ErrInjected):
		return http.StatusInternalServerError, "injected_fault"
	case errors.Is(err, formats.ErrNilFormat):
		return http.StatusInternalServerError, "internal"
	default:
		return http.StatusInternalServerError, "internal"
	}
}
