package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"gimbal/internal/volume"
)

func newTestVolumeAPI(t *testing.T) (*volumeServer, *httptest.Server) {
	return newTestVolumeAPIToken(t, "")
}

func newTestVolumeAPIToken(t *testing.T, token string) (*volumeServer, *httptest.Server) {
	t.Helper()
	classes, err := volume.ParseClasses("gold=8,silver=4,besteffort=1")
	if err != nil {
		t.Fatal(err)
	}
	vs := newVolumeServer(classes, 2, 1<<30, token)
	mux := http.NewServeMux()
	vs.register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return vs, srv
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	rsp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if out != nil && rsp.StatusCode < 300 && rsp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(rsp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return rsp.StatusCode
}

// TestVolumeEndpoints drives the full CSI-shaped lifecycle over HTTP:
// create, snapshot, clone, conflict and capacity errors, delete ordering,
// and the status-code mapping for each sentinel.
func TestVolumeEndpoints(t *testing.T) {
	_, srv := newTestVolumeAPI(t)
	base := srv.URL

	var v volume.Info
	if got := doJSON(t, "POST", base+"/volumes", createVolumeReq{Name: "v0", SizeBytes: 64 << 20, QoSClass: "gold"}, &v); got != http.StatusCreated {
		t.Fatalf("create: %d", got)
	}
	if v.Name != "v0" || v.QoSClass != "gold" {
		t.Fatalf("create reply: %+v", v)
	}
	// Duplicate name and unknown class are client errors.
	if got := doJSON(t, "POST", base+"/volumes", createVolumeReq{Name: "v0", SizeBytes: 1 << 20}, nil); got != http.StatusConflict {
		t.Fatalf("duplicate create: %d, want 409", got)
	}
	if got := doJSON(t, "POST", base+"/volumes", createVolumeReq{Name: "v1", SizeBytes: 1 << 20, QoSClass: "platinum"}, nil); got != http.StatusBadRequest {
		t.Fatalf("unknown class: %d, want 400", got)
	}
	// Past the 4× thin budget on 2 × 1GB backends.
	if got := doJSON(t, "POST", base+"/volumes", createVolumeReq{Name: "big", SizeBytes: 10 << 30}, nil); got != http.StatusInsufficientStorage {
		t.Fatalf("over capacity: %d, want 507", got)
	}

	var s volume.SnapshotInfo
	if got := doJSON(t, "POST", base+"/volumes/v0/snapshots", snapshotReq{Name: "s0"}, &s); got != http.StatusCreated {
		t.Fatalf("snapshot: %d", got)
	}
	var c volume.Info
	if got := doJSON(t, "POST", base+"/snapshots/s0/clones", cloneReq{Name: "c0", QoSClass: "silver"}, &c); got != http.StatusCreated {
		t.Fatalf("clone: %d", got)
	}
	if c.Parent != "s0" || c.QoSClass != "silver" {
		t.Fatalf("clone reply: %+v", c)
	}
	// A snapshot with live clones cannot be deleted.
	if got := doJSON(t, "DELETE", base+"/snapshots/s0", nil, nil); got != http.StatusConflict {
		t.Fatalf("delete pinned snapshot: %d, want 409", got)
	}
	if got := doJSON(t, "POST", base+"/volumes/v0/resize", resizeReq{SizeBytes: 128 << 20}, &v); got != http.StatusOK || v.SizeBytes != 128<<20 {
		t.Fatalf("resize: %d %+v", got, v)
	}

	var listing volume.Listing
	if got := doJSON(t, "GET", base+"/volumes", nil, &listing); got != http.StatusOK {
		t.Fatalf("list: %d", got)
	}
	if len(listing.Volumes) != 2 || listing.Usage.Volumes != 2 || listing.Usage.Snapshots != 1 {
		t.Fatalf("listing: %+v", listing)
	}
	if listing.Usage.LogicalBytes != (128<<20)+(64<<20) {
		t.Fatalf("logical bytes: %d", listing.Usage.LogicalBytes)
	}

	// Teardown in dependency order; 404 after.
	if got := doJSON(t, "DELETE", base+"/volumes/c0", nil, nil); got != http.StatusNoContent {
		t.Fatalf("delete clone: %d", got)
	}
	if got := doJSON(t, "DELETE", base+"/snapshots/s0", nil, nil); got != http.StatusNoContent {
		t.Fatalf("delete snapshot: %d", got)
	}
	if got := doJSON(t, "DELETE", base+"/volumes/v0", nil, nil); got != http.StatusNoContent {
		t.Fatalf("delete volume: %d", got)
	}
	if got := doJSON(t, "GET", base+"/volumes/v0", nil, nil); got != http.StatusNotFound {
		t.Fatalf("lookup deleted: %d, want 404", got)
	}

	var classes []struct {
		Name   string `json:"name"`
		Weight int    `json:"weight"`
	}
	if got := doJSON(t, "GET", base+"/qos-classes", nil, &classes); got != http.StatusOK {
		t.Fatalf("qos-classes: %d", got)
	}
	if len(classes) != 3 || classes[0].Name != "gold" || classes[0].Weight != 8 {
		t.Fatalf("classes: %+v", classes)
	}
}

// doJSONAuth is doJSON with an Authorization header.
func doJSONAuth(t *testing.T, method, url, auth string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if auth != "" {
		req.Header.Set("Authorization", auth)
	}
	rsp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if out != nil && rsp.StatusCode < 300 && rsp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(rsp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return rsp.StatusCode
}

// TestVolumeAuth pins the -admin-token contract: with a token configured,
// every mutating endpoint rejects missing or wrong credentials with 401,
// accepts the right bearer token, and leaves reads open.
func TestVolumeAuth(t *testing.T) {
	_, srv := newTestVolumeAPIToken(t, "s3cret")
	base := srv.URL

	mutations := []struct {
		method, path string
	}{
		{"POST", "/volumes"},
		{"DELETE", "/volumes/v0"},
		{"POST", "/volumes/v0/resize"},
		{"POST", "/volumes/v0/snapshots"},
		{"DELETE", "/snapshots/s0"},
		{"POST", "/snapshots/s0/clones"},
	}
	for _, m := range mutations {
		if got := doJSON(t, m.method, base+m.path, map[string]any{}, nil); got != http.StatusUnauthorized {
			t.Errorf("%s %s without token: %d, want 401", m.method, m.path, got)
		}
		if got := doJSONAuth(t, m.method, base+m.path, "Bearer wrong", map[string]any{}, nil); got != http.StatusUnauthorized {
			t.Errorf("%s %s with wrong token: %d, want 401", m.method, m.path, got)
		}
		if got := doJSONAuth(t, m.method, base+m.path, "s3cret", map[string]any{}, nil); got != http.StatusUnauthorized {
			t.Errorf("%s %s with non-bearer scheme: %d, want 401", m.method, m.path, got)
		}
	}

	// The right token works end to end.
	var v volume.Info
	if got := doJSONAuth(t, "POST", base+"/volumes", "Bearer s3cret",
		createVolumeReq{Name: "v0", SizeBytes: 1 << 20, QoSClass: "gold"}, &v); got != http.StatusCreated {
		t.Fatalf("authorized create: %d, want 201", got)
	}
	// Reads stay open without credentials.
	var listing volume.Listing
	if got := doJSON(t, "GET", base+"/volumes", nil, &listing); got != http.StatusOK || len(listing.Volumes) != 1 {
		t.Fatalf("unauthenticated read: %d %+v", got, listing)
	}
	if got := doJSON(t, "GET", base+"/qos-classes", nil, nil); got != http.StatusOK {
		t.Fatalf("unauthenticated classes read: %d", got)
	}
	if got := doJSONAuth(t, "DELETE", base+"/volumes/v0", "Bearer s3cret", nil, nil); got != http.StatusNoContent {
		t.Fatalf("authorized delete: %d", got)
	}
}

// TestVolumeDrain pins the graceful-drain contract: after Drain, every
// mutation returns 503 while reads keep serving.
func TestVolumeDrain(t *testing.T) {
	vs, srv := newTestVolumeAPI(t)
	base := srv.URL
	if got := doJSON(t, "POST", base+"/volumes", createVolumeReq{Name: "v0", SizeBytes: 1 << 20}, nil); got != http.StatusCreated {
		t.Fatalf("create before drain: %d", got)
	}
	vs.Drain()
	for _, m := range []struct{ method, path string }{
		{"POST", "/volumes"},
		{"DELETE", "/volumes/v0"},
		{"POST", "/volumes/v0/resize"},
		{"POST", "/volumes/v0/snapshots"},
		{"POST", "/snapshots/s0/clones"},
	} {
		if got := doJSON(t, m.method, base+m.path, map[string]any{}, nil); got != http.StatusServiceUnavailable {
			t.Errorf("%s %s while draining: %d, want 503", m.method, m.path, got)
		}
	}
	var listing volume.Listing
	if got := doJSON(t, "GET", base+"/volumes", nil, &listing); got != http.StatusOK || len(listing.Volumes) != 1 {
		t.Fatalf("read while draining: %d %+v", got, listing)
	}
}

// TestVolumeRetriesAreIdempotent pins the CSI retry contract on every
// mutating endpoint: the first attempt creates (201), a retry with the same
// parameters returns the existing object (200), the same name with
// different parameters is a conflict (409), and deleting twice is 204 both
// times.
func TestVolumeRetriesAreIdempotent(t *testing.T) {
	_, srv := newTestVolumeAPI(t)
	base := srv.URL
	steps := []struct {
		name, method, path string
		body               any
		want               int
	}{
		{"create", "POST", "/volumes", createVolumeReq{Name: "v0", SizeBytes: 64 << 20, QoSClass: "gold"}, http.StatusCreated},
		{"create retry", "POST", "/volumes", createVolumeReq{Name: "v0", SizeBytes: 64 << 20, QoSClass: "gold"}, http.StatusOK},
		{"create other size", "POST", "/volumes", createVolumeReq{Name: "v0", SizeBytes: 32 << 20, QoSClass: "gold"}, http.StatusConflict},
		{"create other class", "POST", "/volumes", createVolumeReq{Name: "v0", SizeBytes: 64 << 20, QoSClass: "silver"}, http.StatusConflict},
		{"create now thick", "POST", "/volumes", createVolumeReq{Name: "v0", SizeBytes: 64 << 20, QoSClass: "gold", Thick: true}, http.StatusConflict},
		{"default class", "POST", "/volumes", createVolumeReq{Name: "v1", SizeBytes: 1 << 20}, http.StatusCreated},
		{"default class retry by name", "POST", "/volumes", createVolumeReq{Name: "v1", SizeBytes: 1 << 20, QoSClass: "gold"}, http.StatusOK},

		{"snapshot", "POST", "/volumes/v0/snapshots", snapshotReq{Name: "s0"}, http.StatusCreated},
		{"snapshot retry", "POST", "/volumes/v0/snapshots", snapshotReq{Name: "s0"}, http.StatusOK},
		{"snapshot other source", "POST", "/volumes/v1/snapshots", snapshotReq{Name: "s0"}, http.StatusConflict},

		{"clone", "POST", "/snapshots/s0/clones", cloneReq{Name: "c0", QoSClass: "silver"}, http.StatusCreated},
		{"clone retry", "POST", "/snapshots/s0/clones", cloneReq{Name: "c0", QoSClass: "silver"}, http.StatusOK},
		{"clone other class", "POST", "/snapshots/s0/clones", cloneReq{Name: "c0", QoSClass: "gold"}, http.StatusConflict},
		{"clone onto a plain volume's name", "POST", "/snapshots/s0/clones", cloneReq{Name: "v1"}, http.StatusConflict},
		{"create onto a clone's name", "POST", "/volumes", createVolumeReq{Name: "c0", SizeBytes: 64 << 20, QoSClass: "silver"}, http.StatusConflict},

		{"delete clone", "DELETE", "/volumes/c0", nil, http.StatusNoContent},
		{"delete clone again", "DELETE", "/volumes/c0", nil, http.StatusNoContent},
		{"delete snapshot", "DELETE", "/snapshots/s0", nil, http.StatusNoContent},
		{"delete snapshot again", "DELETE", "/snapshots/s0", nil, http.StatusNoContent},
		{"delete never-created volume", "DELETE", "/volumes/ghost", nil, http.StatusNoContent},
	}
	for _, st := range steps {
		if got := doJSON(t, st.method, base+st.path, st.body, nil); got != st.want {
			t.Fatalf("%s: %s %s = %d, want %d", st.name, st.method, st.path, got, st.want)
		}
	}
	// The retries created nothing: two volumes, no snapshots, and the
	// retried create replied with the object the first attempt made.
	var listing volume.Listing
	if got := doJSON(t, "GET", base+"/volumes", nil, &listing); got != http.StatusOK {
		t.Fatalf("list: %d", got)
	}
	if len(listing.Volumes) != 2 || listing.Usage.Snapshots != 0 || listing.Usage.LogicalBytes != (64<<20)+(1<<20) {
		t.Fatalf("state after retries: %+v", listing)
	}
	var v volume.Info
	if got := doJSON(t, "POST", base+"/volumes", createVolumeReq{Name: "v0", SizeBytes: 64 << 20, QoSClass: "gold"}, &v); got != http.StatusOK ||
		v.Name != "v0" || v.SizeBytes != 64<<20 || v.QoSClass != "gold" {
		t.Fatalf("retried create reply: %d %+v", got, v)
	}
}
