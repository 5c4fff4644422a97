package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gimbal/internal/volume"
)

// fuzzToken is the bearer token FuzzVolumeHTTP's server requires.
const fuzzToken = "s3cret"

// The menus nextCall picks from. A method of "" drains the server instead
// of sending a request; a path's %s is the call's path name.
var (
	fuzzMethods = []string{http.MethodGet, http.MethodPost, http.MethodDelete, http.MethodPut, ""}
	fuzzPaths   = []string{"/volumes", "/volumes/%s", "/volumes/%s/resize", "/volumes/%s/snapshots",
		"/snapshots", "/snapshots/%s", "/snapshots/%s/clones", "/qos-classes", "/volumes/%s/bogus"}
	fuzzNames   = []string{"v0", "v1", "s0", "", "a/b"}
	fuzzClasses = []string{"", "gold", "silver", "besteffort", "platinum"}
	fuzzSizes   = []int64{64 << 20, 4096, 1 << 30, 0, 4095, -4096, 16 << 30, math.MaxInt64}
)

// Indices into fuzzPaths of the routes whose replies FuzzVolumeHTTP checks.
const (
	routeVolumes  = 0
	routeResize   = 2
	routeSnapshot = 3
	routeClone    = 6
)

// documentedStatus is every status volumes.go's doc comment names.
var documentedStatus = map[int]bool{200: true, 201: true, 204: true, 301: true, 400: true,
	401: true, 404: true, 405: true, 409: true, 503: true, 507: true}

// volumeCall is one step of a FuzzVolumeHTTP sequence.
type volumeCall struct {
	method, path, auth string
	route              int    // index into fuzzPaths
	target             string // the path's name
	req                createVolumeReq
	body               []byte
}

// nextCall decodes one step from the front of b, six bytes: method, path,
// path name, token (none, right, wrong), body name (low nibble) and class
// (high nibble), and a last byte whose bit 0 is thick, bits 1-3 index
// fuzzSizes, bit 6 truncates the JSON body and bit 7 takes the next eight
// bytes as the size instead. The one body carries every request type's
// fields. ok is false when b is too short for another step.
func nextCall(b []byte) (c volumeCall, rest []byte, ok bool) {
	if len(b) < 6 {
		return c, nil, false
	}
	c.method = fuzzMethods[int(b[0])%len(fuzzMethods)]
	c.route = int(b[1]) % len(fuzzPaths)
	c.target = fuzzNames[int(b[2])%len(fuzzNames)]
	c.path = strings.Replace(fuzzPaths[c.route], "%s", c.target, 1)
	switch b[3] % 3 {
	case 1:
		c.auth = "Bearer " + fuzzToken
	case 2:
		c.auth = "Bearer wrong"
	}
	c.req = createVolumeReq{
		Name:      fuzzNames[int(b[4]&15)%len(fuzzNames)],
		QoSClass:  fuzzClasses[int(b[4]>>4)%len(fuzzClasses)],
		Thick:     b[5]&1 != 0,
		SizeBytes: fuzzSizes[int(b[5]>>1)&7],
	}
	rest = b[6:]
	if b[5]&0x80 != 0 && len(rest) >= 8 {
		c.req.SizeBytes = int64(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
	}
	c.body, _ = json.Marshal(c.req)
	if b[5]&0x40 != 0 {
		c.body = c.body[:len(c.body)/2]
	}
	return c, rest, true
}

// step encodes one nextCall step (indices into the menus above).
func step(method, path, target, auth, name, class, size int, thick bool) []byte {
	last := byte(size << 1)
	if thick {
		last |= 1
	}
	return []byte{byte(method), byte(path), byte(target), byte(auth), byte(name | class<<4), last}
}

// volumeSeeds is FuzzVolumeHTTP's seed corpus: the CSI lifecycle, the
// retries a lost reply provokes (identical, and with one parameter
// changed), unauthenticated and unroutable mutations, bad bodies and sizes,
// and a drain.
func volumeSeeds() [][]byte {
	const (
		get, post, del, put, drain = 0, 1, 2, 3, 4
		none, right, wrong         = 0, 1, 2
		vol, snaps, snap, classes  = 1, 4, 5, 7
	)
	create := step(post, routeVolumes, 0, right, 0, 1, 0, false) // v0, gold, 64 MiB, thin
	truncated := append(step(post, routeVolumes, 0, right, 1, 0, 0, false)[:5], 0x40)
	huge := append(step(post, routeResize, 0, right, 0, 0, 0, false)[:5], 0x80)
	huge = binary.LittleEndian.AppendUint64(huge, math.MaxInt64-(1<<20))
	return [][]byte{
		bytes.Join([][]byte{create,
			step(post, routeSnapshot, 0, right, 2, 0, 0, false), // s0 of v0
			step(post, routeClone, 2, right, 1, 2, 0, false),    // v1 from s0, silver
			step(del, snap, 2, right, 0, 0, 0, false),           // s0 has a clone: 409
			step(post, routeResize, 0, right, 0, 0, 2, false),   // v0 to 1 GiB
			step(get, routeVolumes, 0, none, 0, 0, 0, false),
			step(get, snaps, 0, none, 0, 0, 0, false),
			step(del, vol, 1, right, 0, 0, 0, false),
			step(del, snap, 2, right, 0, 0, 0, false),
			step(del, vol, 0, right, 0, 0, 0, false),
			step(get, classes, 0, none, 0, 0, 0, false)}, nil),
		bytes.Join([][]byte{create, create}, nil),
		bytes.Join([][]byte{create, step(post, routeVolumes, 0, right, 0, 1, 2, false)}, nil), // other size
		bytes.Join([][]byte{create, step(post, routeVolumes, 0, right, 0, 2, 0, false)}, nil), // other class
		bytes.Join([][]byte{create, step(post, routeVolumes, 0, right, 0, 1, 0, true)}, nil),  // thick
		bytes.Join([][]byte{step(post, routeVolumes, 0, right, 0, 0, 0, true),
			step(post, routeVolumes, 0, right, 1, 0, 6, false)}, nil), // past the thin budget
		bytes.Join([][]byte{step(post, routeVolumes, 0, none, 0, 0, 0, false),
			step(del, vol, 0, wrong, 0, 0, 0, false),
			step(put, vol, 0, right, 0, 0, 0, false),
			step(post, 8, 0, right, 0, 0, 0, false),
			step(post, routeSnapshot, 3, right, 0, 0, 0, false)}, nil), // "/volumes//snapshots"
		bytes.Join([][]byte{create, step(drain, 0, 0, 0, 0, 0, 0, false), create,
			step(get, vol, 0, none, 0, 0, 0, false)}, nil),
		bytes.Join([][]byte{step(post, routeVolumes, 0, right, 4, 3, 0, false), // name a/b
			step(post, routeVolumes, 0, right, 3, 4, 3, false), // no name, unknown class, size 0
			step(post, routeVolumes, 0, right, 0, 0, 5, false), // negative size
			truncated, create, huge}, nil),
	}
}

// FuzzVolumeHTTP drives gimbald's volume endpoints, on the admin mux and
// in process, with sequences of method, path, bearer token and JSON body
// (see nextCall), up to 64 steps an input. After every request: the handler did not panic, the
// status is a documented one, a mutation without the right token did not
// succeed, and Manager.Audit is clean. A create, snapshot, clone or resize
// that succeeds describes the object asked for, and a create, snapshot or
// clone that made one is sent again at once and must return it, unchanged,
// with 200.
func FuzzVolumeHTTP(f *testing.F) {
	for _, seed := range volumeSeeds() {
		f.Add(seed)
	}
	classes, err := volume.ParseClasses("gold=8,silver=4,besteffort=1")
	if err != nil {
		f.Fatal(err)
	}
	className := func(c string) string {
		i, err := classes.Index(c)
		if err != nil {
			return "unknown class " + c
		}
		return classes.Spec(i).Name
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		vs := newVolumeServer(classes, 2, 1<<30, fuzzToken)
		mux := http.NewServeMux()
		vs.register(mux)
		send := func(c volumeCall) *httptest.ResponseRecorder {
			r := httptest.NewRequest(c.method, c.path, bytes.NewReader(c.body))
			if c.auth != "" {
				r.Header.Set("Authorization", c.auth)
			}
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, r)
			return w
		}
		for i := 0; i < 64; i++ { // a longer input only repeats what 64 steps reach
			c, rest, ok := nextCall(b)
			if !ok {
				return
			}
			b = rest
			if c.method == "" {
				vs.Drain()
				continue
			}
			w := send(c)
			where := func() string { return c.method + " " + c.path + " " + string(c.body) }
			if !documentedStatus[w.Code] {
				t.Fatalf("step %d: %s: undocumented status %d: %s", i, where(), w.Code, w.Body)
			}
			mutation := c.method == http.MethodPost || c.method == http.MethodDelete
			if mutation && c.auth != "Bearer "+fuzzToken && w.Code < 300 {
				t.Fatalf("step %d: %s with %q: %d", i, where(), c.auth, w.Code)
			}
			if err := vs.m.Audit(); err != nil {
				t.Fatalf("step %d: %s: audit: %v", i, where(), err)
			}
			if c.method != http.MethodPost || w.Code >= 300 {
				continue
			}
			var got volume.Info // a snapshot's fields decode into Name and SizeBytes
			var snap volume.SnapshotInfo
			_ = json.Unmarshal(w.Body.Bytes(), &got)
			_ = json.Unmarshal(w.Body.Bytes(), &snap)
			req := c.req
			switch c.route {
			case routeVolumes:
				if got.Name != req.Name || got.SizeBytes != req.SizeBytes || got.Thick != req.Thick ||
					got.QoSClass != className(req.QoSClass) || got.Parent != "" {
					t.Fatalf("step %d: %s: %d made %+v", i, where(), w.Code, got)
				}
			case routeResize:
				if got.Name != c.target || got.SizeBytes != req.SizeBytes {
					t.Fatalf("step %d: %s: %d resized to %+v", i, where(), w.Code, got)
				}
			case routeSnapshot:
				if snap.Name != req.Name || snap.Source != c.target {
					t.Fatalf("step %d: %s: %d cut %+v", i, where(), w.Code, snap)
				}
			case routeClone:
				if got.Name != req.Name || got.Parent != c.target || got.QoSClass != className(req.QoSClass) {
					t.Fatalf("step %d: %s: %d cloned %+v", i, where(), w.Code, got)
				}
			}
			if w.Code == http.StatusCreated {
				again := send(c)
				if again.Code != http.StatusOK || again.Body.String() != w.Body.String() {
					t.Fatalf("step %d: %s made\n%s\nand the retry returned %d\n%s", i, where(), w.Body, again.Code, again.Body)
				}
			}
		}
	})
}
