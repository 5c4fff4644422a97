// The volume subcommand drives gimbald's CSI-shaped provisioning facade:
//
//	gimbalcli volume create   -admin 127.0.0.1:9420 -name v0 -size 1G [-class gold] [-thick]
//	gimbalcli volume list     -admin 127.0.0.1:9420
//	gimbalcli volume resize   -admin 127.0.0.1:9420 -name v0 -size 2G
//	gimbalcli volume snapshot -admin 127.0.0.1:9420 -vol v0 -name s0
//	gimbalcli volume clone    -admin 127.0.0.1:9420 -snap s0 -name v1 [-class silver]
//	gimbalcli volume delete   -admin 127.0.0.1:9420 -name v0 | -snap s0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"

	"gimbal/internal/volume"
)

// parseSize accepts plain bytes or a K/M/G/T-suffixed size ("1G", "256M").
func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "T"):
		mult, s = 1<<40, strings.TrimSuffix(s, "T")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

func fmtSize(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dG", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return strconv.FormatInt(n, 10)
	}
}

// adminDo issues one JSON request to gimbald's admin endpoint and decodes
// the reply into out (which may be nil for 204 responses). Non-2xx replies
// surface the server's error field.
func adminDo(method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rsp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer rsp.Body.Close()
	if rsp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(rsp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", rsp.Status, e.Error)
		}
		return fmt.Errorf("%s %s: %s", method, url, rsp.Status)
	}
	if out == nil || rsp.StatusCode == http.StatusNoContent {
		return nil
	}
	return json.NewDecoder(rsp.Body).Decode(out)
}

// volumeMain dispatches `gimbalcli volume <verb>`.
func volumeMain(args []string) {
	if len(args) < 1 {
		log.Fatal("usage: gimbalcli volume create|list|resize|snapshot|clone|delete [flags]")
	}
	verb, rest := args[0], args[1:]
	fs := flag.NewFlagSet("volume "+verb, flag.ExitOnError)
	var (
		admin = fs.String("admin", "127.0.0.1:9420", "gimbald observability address")
		name  = fs.String("name", "", "volume name (or snapshot name for snapshot/clone verbs)")
		size  = fs.String("size", "", "size, plain bytes or K/M/G/T suffixed")
		class = fs.String("class", "", "QoS class (empty = default class)")
		thick = fs.Bool("thick", false, "preallocate every extent at create time")
		vol   = fs.String("vol", "", "source volume (snapshot verb)")
		snap  = fs.String("snap", "", "source snapshot (clone verb) or snapshot to delete")
	)
	fs.Parse(rest)
	base := "http://" + *admin

	switch verb {
	case "create":
		if *name == "" || *size == "" {
			log.Fatal("volume create: -name and -size are required")
		}
		n, err := parseSize(*size)
		if err != nil {
			log.Fatal(err)
		}
		var v volume.Info
		req := map[string]any{"name": *name, "size_bytes": n, "qos_class": *class, "thick": *thick}
		if err := adminDo("POST", base+"/volumes", req, &v); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("created volume %s (%s, class %s)\n", v.Name, fmtSize(v.SizeBytes), v.QoSClass)
	case "list":
		var rsp volume.Listing
		if err := adminDo("GET", base+"/volumes", nil, &rsp); err != nil {
			log.Fatal(err)
		}
		var snaps []volume.SnapshotInfo
		if err := adminDo("GET", base+"/snapshots", nil, &snaps); err != nil {
			log.Fatal(err)
		}
		u := rsp.Usage
		fmt.Printf("capacity %s, allocated %s, logical %s, cow copies %d, trims %d\n",
			fmtSize(u.CapacityBytes), fmtSize(u.AllocatedBytes), fmtSize(u.LogicalBytes), u.CowCopies, u.Trims)
		if len(rsp.Volumes) > 0 {
			fmt.Printf("%-24s %10s %12s %10s %-16s\n", "volume", "size", "class", "alloc", "parent")
			for _, v := range rsp.Volumes {
				fmt.Printf("%-24s %10s %12s %10s %-16s\n",
					v.Name, fmtSize(v.SizeBytes), v.QoSClass, fmtSize(v.AllocatedBytes), v.Parent)
			}
		}
		if len(snaps) > 0 {
			fmt.Printf("%-24s %10s %-16s %7s\n", "snapshot", "size", "source", "clones")
			for _, s := range snaps {
				fmt.Printf("%-24s %10s %-16s %7d\n", s.Name, fmtSize(s.SizeBytes), s.Source, s.Clones)
			}
		}
	case "resize":
		if *name == "" || *size == "" {
			log.Fatal("volume resize: -name and -size are required")
		}
		n, err := parseSize(*size)
		if err != nil {
			log.Fatal(err)
		}
		var v volume.Info
		if err := adminDo("POST", base+"/volumes/"+*name+"/resize", map[string]any{"size_bytes": n}, &v); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resized volume %s to %s\n", v.Name, fmtSize(v.SizeBytes))
	case "snapshot":
		if *vol == "" || *name == "" {
			log.Fatal("volume snapshot: -vol and -name are required")
		}
		var s volume.SnapshotInfo
		if err := adminDo("POST", base+"/volumes/"+*vol+"/snapshots", map[string]any{"name": *name}, &s); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("snapshot %s of %s (%s)\n", s.Name, s.Source, fmtSize(s.SizeBytes))
	case "clone":
		if *snap == "" || *name == "" {
			log.Fatal("volume clone: -snap and -name are required")
		}
		var v volume.Info
		req := map[string]any{"name": *name, "qos_class": *class}
		if err := adminDo("POST", base+"/snapshots/"+*snap+"/clones", req, &v); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("clone %s of snapshot %s (%s, class %s)\n", v.Name, v.Parent, fmtSize(v.SizeBytes), v.QoSClass)
	case "delete":
		switch {
		case *name != "":
			if err := adminDo("DELETE", base+"/volumes/"+*name, nil, nil); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("deleted volume %s\n", *name)
		case *snap != "":
			if err := adminDo("DELETE", base+"/snapshots/"+*snap, nil, nil); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("deleted snapshot %s\n", *snap)
		default:
			log.Fatal("volume delete: -name (volume) or -snap (snapshot) is required")
		}
	default:
		log.Fatalf("unknown volume verb %q (create|list|resize|snapshot|clone|delete)", verb)
	}
}
