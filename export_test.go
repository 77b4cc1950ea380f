package hetrta

// The encoding/json request decoders, for the layer benchmarks of the
// external test package.
var (
	DecodeAdmitRequestReference      = decodeAdmitReference
	DecodeAdmitDeltaRequestReference = decodeAdmitDeltaReference
)
