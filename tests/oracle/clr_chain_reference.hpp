// Reference construction of the paper's Fig. 3 chains for the test-only
// chain oracle: the named-state assembly the batched assembler
// (reliability::assemble_clr_chain_batch) replaced in the library.
#pragma once

#include "oracle/chain.hpp"
#include "reliability/clr_chain_builder.hpp"

namespace clrearly::oracle {

/// Reference construction of the Fig. 3a timing (`functional` = false,
/// single absorbing state End) or Fig. 3b functional chain (absorbing
/// states Error and noError): named-state ChainBuilder assembly with full
/// input validation, solved eagerly by AbsorbingChain. Its Q, R and
/// residence entries are bit-identical to what assemble_clr_chain_batch
/// writes into each lane. Not used by the DSE flows; it is the differential
/// oracle for the batched kernel and the input to Monte-Carlo simulation.
AbsorbingChain build_chain_reference(const reliability::ClrChainParams& params,
                                     bool functional);

}  // namespace clrearly::oracle
