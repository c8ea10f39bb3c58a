package server

// The uniform error envelope (PR 10 API redesign): every non-2xx response
// from every endpoint decodes into apiError. "error" is the human-readable
// message (present since the first release and safe for legacy clients to
// keep parsing), "code" is a stable machine-readable slug, "status" echoes
// the HTTP status for clients reading buffered bodies, and "detail" carries
// endpoint-specific structure — the over-budget accounting, the allowed
// methods of a 405.

import (
	"fmt"
	"net/http"
	"strings"
)

// apiError is the uniform error envelope of every non-2xx response.
type apiError struct {
	Error  string `json:"error"`
	Code   string `json:"code,omitempty"`
	Status int    `json:"status,omitempty"`
	Detail any    `json:"detail,omitempty"`
}

// errorCode maps a status to its default machine-readable slug; handlers
// with a more specific code pass one to writeErrorDetail explicitly.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusRequestEntityTooLarge:
		return "body_too_large"
	case http.StatusUnsupportedMediaType:
		return "unsupported_media_type"
	case http.StatusUnprocessableEntity:
		return "unprocessable"
	case http.StatusTooManyRequests:
		return "over_budget"
	case http.StatusInternalServerError:
		return "internal"
	case http.StatusServiceUnavailable:
		return "unavailable"
	}
	if text := http.StatusText(status); text != "" {
		return strings.ReplaceAll(strings.ToLower(text), " ", "_")
	}
	return fmt.Sprintf("status_%d", status)
}

// writeError writes the envelope with the status's default code and no
// detail.
func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeErrorDetail(w, status, errorCode(status), nil, format, args...)
}

// writeErrorDetail writes the envelope with an explicit code and optional
// detail payload.
func (s *Server) writeErrorDetail(w http.ResponseWriter, status int, code string, detail any, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...), Code: code, Status: status, Detail: detail})
}
