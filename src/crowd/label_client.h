// Client side of a categorical campaign: build a LabelReport whose claims
// were perturbed locally with k-ary randomized response.
//
// This is the LDP deployment of the categorical extension — the label leaves
// the device already randomized, so the server (which only debiases
// aggregates) never observes a raw claim. The flip stream is keyed by
// (seed, round, user id), never by arrival order, so a fleet replays
// bit-identically under any network schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "categorical/label_matrix.h"
#include "crowd/protocol.h"
#include "net/transport.h"

namespace dptd::crowd {

/// Builds the upload for one user: every claim of `truths` passed through
/// k-RR at `keep_probability` (1.0 = identity, no draws consumed). Draws
/// come from Rng(derive_seed(seed, round, user_id)) — one stream per (round,
/// user), independent of every other report. Throws std::invalid_argument
/// unless num_labels >= 2, the keep probability is in (1/num_labels, 1] and
/// every truth is below num_labels, whatever the keep probability.
LabelReport make_label_report(std::uint64_t round, net::NodeId user_id,
                              std::span<const std::uint64_t> objects,
                              std::span<const categorical::Label> truths,
                              std::size_t num_labels, double keep_probability,
                              std::uint64_t seed);

}  // namespace dptd::crowd
