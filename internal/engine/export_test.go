package engine

// DecodeSidecar exposes the version-1 admission sidecar reader to the
// external tests.
var DecodeSidecar = decodeSidecar
