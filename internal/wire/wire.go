// Package wire is the /v1/predict body codec: the one place bytes become a
// predict request or reply. Decode is a hand-written single pass over the
// request body (the reflective encoding/json walk it replaces was the
// largest share of a single-row request's CPU), Model is the same pass with
// everything but the "model" key skipped (the cluster router's sniff), and
// AppendResponse renders the reply into a caller-owned buffer.
//
// The decoder's contract is differential against encoding/json and fuzzed
// (FuzzDecode): it never accepts a body json.Unmarshal into a Request
// rejects, yields the same value whenever both accept, and is stricter in
// exactly two ways — bytes other than whitespace after the top-level object
// are an error, and so is null where an object (the body itself), a string
// ("model"), an array ("features", a row) or a number (a feature,
// "timeout_ms") is required. Rare tokens — a string with an escape or a
// non-ASCII byte, the small "options" object — are handed to encoding/json
// on their own sub-slice.
//
// The package imports nothing from internal/*, so serve and cluster share it
// without importing each other.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

const (
	// MaxBodyBytes bounds a /v1/predict body (1024 rows of wide float64
	// features fit comfortably; anything bigger is a client error, not an
	// allocation).
	MaxBodyBytes = 8 << 20
	// MaxRows bounds the feature rows of one request — the per-request
	// fan-out. The decoder stops at row MaxRows+1 instead of materializing
	// what the limit exists to refuse.
	MaxRows = 1024
	// maxDepth is encoding/json's nesting limit, enforced while skipping
	// unknown keys so the decoder accepts nothing encoding/json rejects.
	maxDepth = 10000
)

// Options are the per-request serving knobs (the "options" object). The zero
// value is the default request.
type Options struct {
	// TopK asks for the top-K class probabilities per row. 0 (default)
	// returns the argmax class only and skips the softmax entirely.
	TopK int `json:"top_k,omitempty"`
	// Version pins the request to a specific registry version of the model
	// (0 = current). Pinned versions resolve as long as the registry still
	// retains them (see Registry version history).
	Version int `json:"version,omitempty"`
	// NoPerturb disables the cascade's privacy perturbation for offloaded
	// rows — an accuracy-debugging knob; the simulated uplink is still paid.
	// Dense and baseline backends ignore it.
	NoPerturb bool `json:"no_perturb,omitempty"`
}

// Request is the /v1/predict body.
type Request struct {
	Model    string      `json:"model"`
	Features [][]float64 `json:"features"`
	// Options applies to every row of the request.
	Options Options `json:"options"`
	// TimeoutMs overrides the server's default deadline budget for this
	// request (capped at 30 s by the server; 0 inherits the default).
	TimeoutMs int `json:"timeout_ms,omitempty"`

	// flat backs every row of Features after Decode: one allocation per
	// request, and none once the Request is reused.
	flat []float64
}

// ClassProb is one class's probability in a top-K breakdown.
type ClassProb struct {
	Class int     `json:"class"`
	Prob  float64 `json:"prob"`
}

// Row is one row's answer in a Response: the prediction plus the serving
// breakdown — where the row ran, which registry version answered it, and how
// its latency decomposes into queueing, compute, and simulated transfer. The
// model version is per row: during a hot swap, rows of one request can
// legitimately be served by different versions.
type Row struct {
	Class        int         `json:"class"`
	Probs        []ClassProb `json:"probs,omitempty"`
	Local        bool        `json:"local"`
	Placement    string      `json:"placement"`
	ModelVersion int         `json:"model_version"`
	BatchSize    int         `json:"batch_size"`
	QueueMs      float64     `json:"queue_ms"`
	ExecMs       float64     `json:"exec_ms"`
	SimNetMs     float64     `json:"sim_net_ms"`
}

// Response is the /v1/predict reply, as a client decodes it.
type Response struct {
	Model string `json:"model"`
	Rows  []Row  `json:"rows"`
}

var errTooLarge = fmt.Errorf("body exceeds the %d-byte limit", MaxBodyBytes)

// ReadBody reads a whole /v1/predict body into buf[:0] and returns the
// filled slice, refusing more than MaxBodyBytes. A declared contentLength
// sizes the buffer once; an absent or wrong one only costs growth steps.
func ReadBody(r io.Reader, contentLength int64, buf []byte) ([]byte, error) {
	if contentLength > MaxBodyBytes {
		return buf, errTooLarge
	}
	buf = buf[:0]
	// One byte beyond the declared length lets the last Read report EOF
	// without growing the buffer first.
	if need := max(int(contentLength)+1, 512); cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case len(buf) > MaxBodyBytes:
			return buf, errTooLarge
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return buf, err
		}
	}
}

// Decode parses one request body into req in a single pass, replacing
// whatever req held and reusing its capacity: the rows of req.Features all
// point into one flat buffer owned by req, so a reused Request allocates
// only its model name. body is not retained — req.Model is a copy — and may
// be recycled as soon as Decode returns.
func Decode(body []byte, req *Request) error { return decode(body, req, false) }

// Model returns the "model" of a request body, or "" when the body has none
// or is not a request Decode could accept. It is Decode with every other
// value skipped unconverted, for routing on a body before the serving layer
// decodes it.
func Model(body []byte) string {
	var req Request
	if decode(body, &req, true) != nil {
		return ""
	}
	return req.Model
}

func decode(body []byte, req *Request, modelOnly bool) error {
	*req = Request{Features: req.Features[:0], flat: req.flat[:0]}
	s := scanner{b: body}
	more, err := s.open('{', '}')
	for more && err == nil {
		if err = s.member(req, modelOnly); err == nil {
			more, err = s.more('}')
		}
	}
	if err != nil {
		return err
	}
	if s.ws(); s.i < len(s.b) {
		return s.fail("the end of the body")
	}
	return nil
}

// member parses one "key": value of the request object into req.
func (s *scanner) member(req *Request, modelOnly bool) error {
	key, plain, err := s.str()
	if err != nil {
		return err
	}
	if err := s.want(':'); err != nil {
		return err
	}
	switch f := field(key, plain); {
	case f == "model":
		tok, plain, err := s.str()
		if err != nil {
			return err
		}
		req.Model = unquote(tok, plain)
		return nil
	case modelOnly || f == "":
		return s.skip(1)
	case f == "features":
		return s.features(req)
	case f == "timeout_ms":
		tok, err := s.num()
		if err != nil {
			return err
		}
		req.TimeoutMs, err = strconv.Atoi(string(tok))
		return err
	default: // options
		s.ws()
		start := s.i
		if err := s.skip(1); err != nil {
			return err
		}
		// Into a copy, so that req itself need not escape; a repeated key
		// merges into the earlier one, as encoding/json does.
		o := req.Options
		err := json.Unmarshal(s.b[start:s.i], &o)
		req.Options = o
		return err
	}
}

// keys are the request's field names; field matches a key token against them
// as encoding/json matches struct fields — after unquoting, and ignoring
// case under Unicode simple folding (an exact match is its commonest case).
var keys = [...]string{"model", "features", "options", "timeout_ms"}

func field(tok []byte, plain bool) string {
	name := tok[1 : len(tok)-1]
	if !plain {
		name = []byte(unquote(tok, false))
	}
	for _, k := range keys {
		if bytes.EqualFold(name, []byte(k)) {
			return k
		}
	}
	return ""
}

// unquote returns the value of a string token str has validated.
func unquote(tok []byte, plain bool) string {
	if plain {
		return string(tok[1 : len(tok)-1])
	}
	var v string
	_ = json.Unmarshal(tok, &v) // cannot fail: str checked every escape
	return v
}

// scanner walks a body left to right; i only ever advances.
type scanner struct {
	b []byte
	i int
}

// fail reports what the scanner needed at its position and did not find.
func (s *scanner) fail(want string) error {
	if s.i >= len(s.b) {
		return fmt.Errorf("body ends where %s should be", want)
	}
	return fmt.Errorf("offset %d: %q where %s should be", s.i, s.b[s.i], want)
}

func (s *scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\n' || s.b[s.i] == '\t' || s.b[s.i] == '\r') {
		s.i++
	}
}

// at is the byte at the scanner's position, 0 at the end of the body (a
// literal NUL is valid nowhere outside a string, so the two never mix).
func (s *scanner) at() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

func (s *scanner) peek() byte {
	s.ws()
	return s.at()
}

func (s *scanner) want(c byte) error {
	if s.peek() != c {
		return s.fail(strconv.QuoteRune(rune(c)))
	}
	s.i++
	return nil
}

// open consumes an object's or array's opening bracket and reports whether an
// element follows (false: it was empty and its closing bracket is consumed).
func (s *scanner) open(c, closer byte) (bool, error) {
	if err := s.want(c); err != nil {
		return false, err
	}
	if s.peek() != closer {
		return true, nil
	}
	s.i++
	return false, nil
}

// more consumes what follows an element: a comma (true, another element
// follows) or the closing bracket (false).
func (s *scanner) more(closer byte) (bool, error) {
	switch s.peek() {
	case ',':
		s.i++
		return true, nil
	case closer:
		s.i++
		return false, nil
	}
	return false, s.fail("',' or " + strconv.QuoteRune(rune(closer)))
}

// str scans a string token and returns it with its quotes. plain reports
// that the bytes between the quotes are the value: ASCII with no escape.
func (s *scanner) str() (tok []byte, plain bool, err error) {
	if s.peek() != '"' {
		return nil, false, s.fail("a string")
	}
	start := s.i
	plain = true
	for s.i++; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start:s.i], plain, nil
		case c < ' ':
			return nil, false, s.fail("a string character")
		case c >= 0x80:
			plain = false
		case c == '\\':
			plain = false
			s.i++
			switch s.at() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for end := s.i + 4; s.i < end; {
					s.i++
					if c := s.at(); !('0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'f') {
						return nil, false, s.fail("a hex digit")
					}
				}
			default:
				return nil, false, s.fail("an escape character")
			}
		}
	}
	return nil, false, s.fail("a closing quote")
}

func (s *scanner) digits() bool {
	start := s.i
	for '0' <= s.at() && s.at() <= '9' {
		s.i++
	}
	return s.i > start
}

// num scans a number token, holding it to the JSON grammar (no leading zero
// or plus, digits on both sides of a point, digits in an exponent) — which
// strconv alone would not.
func (s *scanner) num() ([]byte, error) {
	s.ws()
	start := s.i
	if s.at() == '-' {
		s.i++
	}
	if s.at() == '0' {
		s.i++
	} else if !s.digits() {
		return nil, s.fail("a number")
	}
	if s.at() == '.' {
		s.i++
		if !s.digits() {
			return nil, s.fail("a fraction digit")
		}
	}
	if s.at()|0x20 == 'e' {
		s.i++
		if s.at() == '+' || s.at() == '-' {
			s.i++
		}
		if !s.digits() {
			return nil, s.fail("an exponent digit")
		}
	}
	return s.b[start:s.i], nil
}

// features parses [[n,…],…] into req: the numbers into one flat buffer, the
// rows as slices of it. A repeated key replaces the earlier value.
func (s *scanner) features(req *Request) error {
	rows, flat := req.Features[:0], req.flat[:0]
	more, err := s.open('[', ']')
	for more && err == nil {
		if len(rows) == MaxRows {
			return fmt.Errorf("feature rows exceed the per-request limit of %d", MaxRows)
		}
		start := len(flat)
		if flat, err = s.row(flat); err == nil {
			rows = append(rows, flat[start:])
			more, err = s.more(']')
		}
	}
	if err != nil {
		return err
	}
	// flat may have moved while it grew: point the rows at where it ended up.
	off := 0
	for i, r := range rows {
		rows[i] = flat[off : off+len(r) : off+len(r)]
		off += len(r)
	}
	req.Features, req.flat = rows, flat
	return nil
}

// row appends the numbers of one [n,…] to flat.
func (s *scanner) row(flat []float64) ([]float64, error) {
	more, err := s.open('[', ']')
	for more && err == nil {
		var tok []byte
		if tok, err = s.num(); err != nil {
			break
		}
		var v float64
		if v, err = strconv.ParseFloat(string(tok), 64); err != nil {
			break
		}
		flat = append(flat, v)
		more, err = s.more(']')
	}
	return flat, err
}

// skip validates and passes over one value of any type. depth counts the
// objects and arrays already open around it.
func (s *scanner) skip(depth int) error {
	c := s.peek()
	switch {
	case c == '"':
		_, _, err := s.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := s.num()
		return err
	case c == '{' || c == '[':
		if depth >= maxDepth {
			return errors.New("exceeded max nesting depth")
		}
		closer := c + 2 // ASCII: '{'+2 == '}', '['+2 == ']'
		more, err := s.open(c, closer)
		for more && err == nil {
			if c == '{' {
				if _, _, err = s.str(); err == nil {
					err = s.want(':')
				}
				if err != nil {
					break
				}
			}
			if err = s.skip(depth + 1); err == nil {
				more, err = s.more(closer)
			}
		}
		return err
	}
	for _, lit := range [...]string{"true", "false", "null"} {
		if bytes.HasPrefix(s.b[s.i:], []byte(lit)) {
			s.i += len(lit)
			return nil
		}
	}
	return s.fail("a value")
}

// AppendResponse appends the reply {"model":…,"rows":[…]} and a newline to
// dst, with the keys and omissions of json.Marshal(Response{model, rows}).
func AppendResponse(dst []byte, model string, rows []Row) []byte {
	dst = appendString(append(dst, `{"model":`...), model)
	dst = append(dst, `,"rows":[`...)
	for i := range rows {
		r := &rows[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, `{"class":`...), int64(r.Class), 10)
		for j, p := range r.Probs {
			sep := `,{"class":`
			if j == 0 {
				sep = `,"probs":[{"class":`
			}
			dst = strconv.AppendInt(append(dst, sep...), int64(p.Class), 10)
			dst = appendFloat(append(dst, `,"prob":`...), p.Prob)
			dst = append(dst, '}')
		}
		if len(r.Probs) > 0 {
			dst = append(dst, ']')
		}
		dst = strconv.AppendBool(append(dst, `,"local":`...), r.Local)
		dst = appendString(append(dst, `,"placement":`...), r.Placement)
		dst = strconv.AppendInt(append(dst, `,"model_version":`...), int64(r.ModelVersion), 10)
		dst = strconv.AppendInt(append(dst, `,"batch_size":`...), int64(r.BatchSize), 10)
		dst = appendFloat(append(dst, `,"queue_ms":`...), r.QueueMs)
		dst = appendFloat(append(dst, `,"exec_ms":`...), r.ExecMs)
		dst = appendFloat(append(dst, `,"sim_net_ms":`...), r.SimNetMs)
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// appendFloat writes f as a JSON number; JSON has no spelling for NaN or an
// infinity, which become null.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= 0x80 || c == '"' || c == '\\' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}
