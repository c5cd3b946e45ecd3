// Package buildinfo is the single source of version identity for every
// acr binary: each cmd/* main wires its -version flag through Flag, and
// the acrd daemon serves the same record on /healthz. Keeping the identity
// in one place means a fleet operator comparing a scraped /healthz against
// a binary's -version output is comparing like with like.
package buildinfo

import (
	"fmt"
	"io"
	rtdebug "runtime/debug"
)

// Version is the release identity of this source tree. Overridable at link
// time (-ldflags "-X acr/internal/buildinfo.Version=v1.2.3"); the default
// marks an untagged development build.
var Version = "dev"

// Info is the identity record -version prints and /healthz serves.
type Info struct {
	// Name is the binary (or service) name, e.g. "acrd".
	Name string `json:"name"`
	// Version is the release identity (see the Version variable).
	Version string `json:"version"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// VCSRevision / VCSModified identify the exact source state when the
	// build had VCS stamping available (empty / false otherwise).
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

// Get assembles the identity record for the named binary, pulling the
// toolchain and VCS details from the embedded build info when present.
func Get(name string) Info {
	info := Info{Name: name, Version: Version}
	bi, ok := rtdebug.ReadBuildInfo()
	if !ok {
		return info
	}
	info.GoVersion = bi.GoVersion
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.VCSRevision = s.Value
		case "vcs.modified":
			info.VCSModified = s.Value == "true"
		}
	}
	return info
}

// String renders the one-line -version output.
func (i Info) String() string {
	s := fmt.Sprintf("%s %s", i.Name, i.Version)
	if i.VCSRevision != "" {
		rev := i.VCSRevision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		s += " (" + rev
		if i.VCSModified {
			s += "+dirty"
		}
		s += ")"
	}
	if i.GoVersion != "" {
		s += " " + i.GoVersion
	}
	return s
}

// HandleFlag implements the shared -version convention: when show is true,
// print the identity to w and report that the caller should exit.
func HandleFlag(w io.Writer, name string, show bool) bool {
	if !show {
		return false
	}
	fmt.Fprintln(w, Get(name).String())
	return true
}
