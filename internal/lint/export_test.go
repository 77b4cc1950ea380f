package lint

// The scope lists, for TestScopeListsNameRealPackages.
var (
	OraclePackages    = oraclePackages
	CanonicalPackages = canonicalPackages
)
