package hetrta

// The encoding/json request and report decoders, for the layer benchmarks
// of the external test package.
var (
	DecodeAdmitRequestReference      = decodeAdmitReference
	DecodeAdmitDeltaRequestReference = decodeAdmitDeltaReference
	DecodeReportReference            = decodeReportReference
)
