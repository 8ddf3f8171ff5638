package serve_test

// The request contract of the message-carrying endpoints, pinned over
// real HTTP: single bodies (/classify, /score, /learn) decode with
// json.Decoder + DisallowUnknownFields semantics — first value only,
// under the 1 MiB body cap — and NDJSON batch lines with json.Unmarshal
// semantics. Whatever decoder the handlers use must keep every row.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/serve"
	"repro/internal/stats"
)

// serverLog collects what a test server logs. A handler panic that
// net/http recovers shows up only here.
type serverLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *serverLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// startServer serves h over real connections, and fails the test if
// the server logged a panic by the time it closes.
func startServer(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(h)
	l := &serverLog{}
	ts.Config.ErrorLog = log.New(l, "", 0)
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		l.mu.Lock()
		defer l.mu.Unlock()
		if strings.Contains(l.buf.String(), "panic") {
			t.Errorf("server log:\n%s", l.buf.String())
		}
	})
	return ts
}

// postRaw posts body verbatim and returns the status and response body.
func postRaw(t *testing.T, client *http.Client, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// ndjsonLines splits a batch response into its non-empty lines.
func ndjsonLines(t *testing.T, body []byte) []string {
	t.Helper()
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	return lines
}

func TestRequestContract(t *testing.T) {
	guarded := newGuarded(t, "sbayes", acceptAll{}, engine.GuardedConfig{})
	srv := serve.New(guarded, serve.Config{})
	defer srv.Close()
	ts := startServer(t, srv)
	client := ts.Client()
	g := testGen(t)
	rng := stats.NewRNG(29)

	msg := g.SpamMessage(rng)
	wire, err := json.Marshal(serve.ClassifyRequest{Message: wireMsg(msg)})
	if err != nil {
		t.Fatal(err)
	}
	huge := strings.Repeat("x", 1<<20)
	// Trailing bytes the first value never reaches; more than the cap.
	trailer := bytes.Repeat([]byte(" garbage"), (1<<20)/8+1024)
	empty := &mail.Message{}
	folded := &mail.Message{Body: "cheap meds online now"}

	cases := []struct {
		name   string
		route  string
		body   []byte
		status int
		prefix string        // error prefix on a 400
		want   *mail.Message // scored message on a 2xx classify/score
	}{
		{"empty body", "/classify", nil, 400, "bad request body:", nil},
		{"empty learn body", "/learn", nil, 400, "bad request body:", nil},
		{"whitespace only", "/score", []byte(" \n\t "), 400, "bad request body:", nil},
		{"literal null", "/classify", []byte("null"), 200, "", empty},
		{"literal null score", "/score", []byte("null"), 200, "", empty},
		{"message null", "/classify", []byte(`{"message":null}`), 200, "", empty},
		{"trailing garbage", "/classify", append(append([]byte{}, wire...), "}{ not json"...), 200, "", msg},
		{"trailing second value", "/score", append(append([]byte{}, wire...), wire...), 200, "", msg},
		{"trailing over the cap", "/classify", append(append([]byte{}, wire...), trailer...), 200, "", msg},
		{"value over the cap", "/classify", []byte(`{"message":{"body":"` + huge + `"}}`), 400, "bad request body:", nil},
		{"learn value over the cap", "/learn", []byte(`{"spam":true,"message":{"body":"` + huge + `"}}`), 400, "bad request body:", nil},
		{"unknown top-level key", "/classify", []byte(`{"message":{"body":"a"},"extra":1}`), 400, "bad request body:", nil},
		{"unknown message key", "/score", []byte(`{"message":{"body":"a","subject":"s"}}`), 400, "bad request body:", nil},
		{"unknown header key", "/learn", []byte(`{"message":{"header":[{"name":"To","value":"a@b","x":null}]},"spam":false}`), 400, "bad request body:", nil},
		{"spam on classify", "/classify", []byte(`{"message":{"body":"a"},"spam":true}`), 400, "bad request body:", nil},
		{"spam on score", "/score", []byte(`{"message":{"body":"a"},"spam":false}`), 400, "bad request body:", nil},
		{"folded keys", "/classify", []byte(`{"MESSAGE":{"BoDy":"cheap meds online now"}}`), 200, "", folded},
		{"folded keys score", "/score", []byte(`{"Message":{"bODY":"cheap meds online now"}}`), 200, "", folded},
		{"folded learn keys", "/learn", []byte(`{"MESSAGE":{"BoDy":"x"},"SPAM":true}`), 202, "", nil},
		{"wrong type", "/classify", []byte(`{"message":{"body":5}}`), 400, "bad request body:", nil},
		{"syntax error", "/learn", []byte(`{"message":{"body":"a"},}`), 400, "bad request body:", nil},
		{"truncated", "/score", []byte(`{"message":{"body":"a"`), 400, "bad request body:", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postRaw(t, client, ts.URL+tc.route, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d (body %.200q)", status, tc.status, body)
			}
			if tc.prefix != "" {
				var er serve.ErrorResponse
				if err := json.Unmarshal(body, &er); err != nil {
					t.Fatalf("error body %.200q: %v", body, err)
				}
				if !strings.HasPrefix(er.Error, tc.prefix) {
					t.Fatalf("error %q lacks prefix %q", er.Error, tc.prefix)
				}
			}
			if tc.want == nil {
				return
			}
			res := guarded.Classify(tc.want)
			switch tc.route {
			case "/classify":
				var got serve.ClassifyResponse
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatal(err)
				}
				if got.Label != res.Label.String() || got.Score != res.Score {
					t.Fatalf("verdict %+v, want %v/%v", got, res.Label, res.Score)
				}
			case "/score":
				var got serve.ScoreResponse
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatal(err)
				}
				if got.Score != res.Score {
					t.Fatalf("score %v, want %v", got.Score, res.Score)
				}
			}
		})
	}

	t.Run("unknown keys on batch lines", func(t *testing.T) {
		body := []byte(`{"body":"cheap meds online now","subject":"s","header":[{"name":"To","value":"a@b","x":[1,{"y":null}]}]}` + "\n" +
			`{"BODY":"cheap meds online now"}` + "\n")
		status, out := postRaw(t, client, ts.URL+"/classify/batch", body)
		if status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		lines := ndjsonLines(t, out)
		if len(lines) != 2 {
			t.Fatalf("%d lines, want 2: %q", len(lines), out)
		}
		want := []*mail.Message{
			{Header: mail.Header{{Name: "To", Value: "a@b"}}, Body: "cheap meds online now"},
			folded,
		}
		for i, line := range lines {
			var got serve.ClassifyResponse
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatalf("line %d %q: %v", i, line, err)
			}
			if res := guarded.Classify(want[i]); got.Label != res.Label.String() || got.Score != res.Score {
				t.Fatalf("line %d verdict %+v, want %v/%v", i, got, res.Label, res.Score)
			}
		}
	})

	t.Run("batch line cap", func(t *testing.T) {
		for _, tc := range []struct {
			n  int
			ok bool
		}{{1<<20 - 1024, true}, {1<<20 + 1024, false}} {
			line := `{"body":"` + strings.Repeat("y", tc.n) + `"}` + "\n"
			status, out := postRaw(t, client, ts.URL+"/score/batch", []byte(line))
			if status != http.StatusOK {
				t.Fatalf("%d-byte body: status %d", tc.n, status)
			}
			lines := ndjsonLines(t, out)
			var er serve.ErrorResponse
			if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &er) != nil || (er.Error == "") != tc.ok {
				t.Fatalf("%d-byte body: got %.200q, want ok=%v", tc.n, out, tc.ok)
			}
		}
	})

	t.Run("bad first line of a long batch", func(t *testing.T) {
		// The handler stops at line 1 with most of the body unread.
		var buf bytes.Buffer
		buf.WriteString(`{"body":` + "\n")
		enc := json.NewEncoder(&buf)
		for i := 0; i < 100; i++ {
			enc.Encode(wireMsg(g.Message(rng, i%2 == 0)))
		}
		for i := 0; i < 3; i++ {
			status, out := postRaw(t, client, ts.URL+"/classify/batch", buf.Bytes())
			lines := ndjsonLines(t, out)
			var er serve.ErrorResponse
			if status != http.StatusOK || len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &er) != nil || !strings.HasPrefix(er.Error, "bad batch line:") {
				t.Fatalf("status %d, lines %.200q; want one bad-line error", status, lines)
			}
		}
	})

	t.Run("bad line after a full chunk", func(t *testing.T) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := 0; i < 64; i++ {
			enc.Encode(wireMsg(g.Message(rng, i%2 == 0)))
		}
		buf.WriteString(`{"body":` + "\n")
		for i := 0; i < 3; i++ {
			enc.Encode(wireMsg(g.HamMessage(rng)))
		}
		status, out := postRaw(t, client, ts.URL+"/score/batch", buf.Bytes())
		if status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		lines := ndjsonLines(t, out)
		if len(lines) != 65 {
			t.Fatalf("%d lines, want 64 scores and one error", len(lines))
		}
		for i, line := range lines[:64] {
			var sc serve.ScoreResponse
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&sc); err != nil {
				t.Fatalf("line %d %q is not a score: %v", i, line, err)
			}
		}
		var er serve.ErrorResponse
		if err := json.Unmarshal([]byte(lines[64]), &er); err != nil || !strings.HasPrefix(er.Error, "bad batch line:") {
			t.Fatalf("last line %q is not a bad-line error (%v)", lines[64], err)
		}
	})
}

// streamBatch posts an NDJSON body the way a streaming client does:
// it sends the first split bytes, waits (up to a second) for the
// response to start, then sends the rest. It returns the response
// lines.
func streamBatch(t *testing.T, client *http.Client, url string, body []byte, split int) []string {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	type result struct {
		resp *http.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := client.Do(req)
		done <- result{resp, err}
	}()
	wrote := make(chan error, 1)
	go func() {
		_, err := pw.Write(body[:split])
		if err == nil {
			select {
			case res := <-done:
				done <- res
			case <-time.After(time.Second):
			}
			_, err = pw.Write(body[split:])
		}
		pw.CloseWithError(err)
		wrote <- err
	}()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	defer res.resp.Body.Close()
	out, err := io.ReadAll(res.resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("sending the batch body: %v", err)
	}
	if res.resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %.200q", res.resp.StatusCode, out)
	}
	return ndjsonLines(t, out)
}

// TestBatchFullDuplex sends batches far past one 64-line chunk over a
// real connection, holding back everything after the first chunk until
// the verdicts for it start to arrive. Each batch must still come back
// whole, in order, and equal to the single-message answers.
func TestBatchFullDuplex(t *testing.T) {
	guarded := newGuarded(t, "sbayes", acceptAll{}, engine.GuardedConfig{})
	srv := serve.New(guarded, serve.Config{})
	defer srv.Close()
	ts := startServer(t, srv)
	client := ts.Client()
	g := testGen(t)
	rng := stats.NewRNG(31)

	const n = 300
	msgs := make([]serve.WireMessage, n)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	split := 0
	for i := range msgs {
		msgs[i] = wireMsg(g.Message(rng, i%3 == 0))
		enc.Encode(msgs[i])
		if i == 64 {
			split = buf.Len()
		}
	}
	for _, route := range []string{"/classify", "/score"} {
		t.Run(route, func(t *testing.T) {
			lines := streamBatch(t, client, ts.URL+route+"/batch", buf.Bytes(), split)
			if len(lines) != n {
				last := ""
				if len(lines) > 0 {
					last = lines[len(lines)-1]
				}
				t.Fatalf("%d lines, want %d (last %.200q)", len(lines), n, last)
			}
			for i, line := range lines {
				body, err := json.Marshal(serve.ClassifyRequest{Message: msgs[i]})
				if err != nil {
					t.Fatal(err)
				}
				status, single := postRaw(t, client, ts.URL+route, body)
				if status != http.StatusOK {
					t.Fatalf("single %s %d: status %d", route, i, status)
				}
				if got, want := line, strings.TrimSpace(string(single)); got != want {
					t.Fatalf("line %d = %s, single answer %s", i, got, want)
				}
			}
		})
	}
}
