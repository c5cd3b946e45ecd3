package buildinfo

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestGetCarriesNameAndVersion(t *testing.T) {
	info := Get("acrd")
	if info.Name != "acrd" {
		t.Errorf("name = %q, want acrd", info.Name)
	}
	if info.Version != Version {
		t.Errorf("version = %q, want %q", info.Version, Version)
	}
	if !strings.HasPrefix(info.String(), "acrd "+Version) {
		t.Errorf("String() = %q, want prefix %q", info.String(), "acrd "+Version)
	}
}

func TestWriteJSONSchema(t *testing.T) {
	b, err := json.Marshal(Get("acrrun"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"name", "version"} {
		if _, ok := m[k]; !ok {
			t.Errorf("healthz JSON missing key %q: %s", k, b)
		}
	}
}

func TestHandleFlag(t *testing.T) {
	var sb strings.Builder
	if HandleFlag(&sb, "acrfleet", false) {
		t.Fatal("HandleFlag(false) asked caller to exit")
	}
	if sb.Len() != 0 {
		t.Fatalf("HandleFlag(false) wrote %q", sb.String())
	}
	if !HandleFlag(&sb, "acrfleet", true) {
		t.Fatal("HandleFlag(true) did not ask caller to exit")
	}
	if !strings.Contains(sb.String(), "acrfleet") {
		t.Fatalf("version line %q missing binary name", sb.String())
	}
}
