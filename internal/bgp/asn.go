package bgp

import "strconv"

// ASN is an Autonomous System number. The study period (1997-2001) predates
// 4-octet AS numbers, so wire encodings in this module use 2 octets; the Go
// type is uint32 so the library remains usable with modern data.
type ASN uint32

// ASTrans is AS_TRANS (RFC 6793): the 2-octet stand-in a speaker whose
// AS does not fit in 2 octets writes where the wire has room for 2 only.
const ASTrans ASN = 23456

// String renders the conventional "AS8584" form.
func (a ASN) String() string { return "AS" + strconv.FormatUint(uint64(a), 10) }
