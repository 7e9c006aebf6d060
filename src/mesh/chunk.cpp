#include "mesh/chunk.hpp"

namespace tealeaf {

Chunk::Chunk(const ChunkExtent& extent, const GlobalMesh& mesh,
             int halo_depth)
    : extent_(extent), mesh_(mesh), halo_depth_(halo_depth) {
  TEA_REQUIRE(extent.nx > 0 && extent.ny > 0 && extent.nz > 0,
              "chunk must own cells");
  TEA_REQUIRE(halo_depth >= 1, "solvers need at least one halo layer");
  // The zero-fill below is the first touch of every field's pages: run
  // this constructor on the thread that owns the rank (see the parallel
  // construction in SimCluster) and the fields are NUMA-local to it.
  // kKz exists only under the 7-point stencil; 2-D chunks leave it
  // unallocated rather than carry a dead field through every cache.
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (mesh.dims != 3 && i == idx(FieldId::kKz)) continue;
    fields_[i] = (mesh.dims == 3)
                     ? Field<double>::make3d(extent.nx, extent.ny, extent.nz,
                                             halo_depth, 0.0)
                     : Field<double>(extent.nx, extent.ny, halo_depth, 0.0);
  }
  row_scratch_.assign(
      2 * static_cast<std::size_t>(extent.ny) * extent.nz, 0.0);
}

Field<double>& Chunk::field(FieldId id) {
  Field<double>& f = fields_[idx(id)];
  // kKz is never allocated on 2-D chunks; handing out the empty Field
  // would turn any element access into silent out-of-bounds reads.
  TEA_REQUIRE(f.size() > 0,
              "field not allocated for this geometry (kKz is 3-D only)");
  return f;
}

const Field<double>& Chunk::field(FieldId id) const {
  const Field<double>& f = fields_[idx(id)];
  TEA_REQUIRE(f.size() > 0,
              "field not allocated for this geometry (kKz is 3-D only)");
  return f;
}

void Chunk::enable_fp32() {
  if (fp32_enabled()) return;
  // Mirror the fp64 ctor allocation (same halo, kKz only in 3-D) so both
  // banks share one geometry and the assembled-operator column offsets
  // index either.  The material fields only feed the fp64 operator build
  // and energy recovery, so they get no fp32 twin.  The zero-fill is the
  // NUMA first touch.
  fields32_.resize(kNumFieldIds);
  for (std::size_t i = 0; i < fields32_.size(); ++i) {
    if (mesh_.dims != 3 && i == idx(FieldId::kKz)) continue;
    if (i == idx(FieldId::kDensity) || i == idx(FieldId::kEnergy0) ||
        i == idx(FieldId::kEnergy1))
      continue;
    fields32_[i] = (mesh_.dims == 3)
                       ? Field<float>::make3d(extent_.nx, extent_.ny,
                                              extent_.nz, halo_depth_, 0.0f)
                       : Field<float>(extent_.nx, extent_.ny, halo_depth_,
                                      0.0f);
  }
}

Field<float>& Chunk::field32(FieldId id) {
  TEA_REQUIRE(fp32_enabled(), "fp32 field bank not enabled on this chunk");
  Field<float>& f = fields32_[idx(id)];
  TEA_REQUIRE(f.size() > 0,
              "fp32 field not allocated (kKz is 3-D only; density and "
              "energy have no fp32 twin)");
  return f;
}

const Field<float>& Chunk::field32(FieldId id) const {
  TEA_REQUIRE(fp32_enabled(), "fp32 field bank not enabled on this chunk");
  const Field<float>& f = fields32_[idx(id)];
  TEA_REQUIRE(f.size() > 0,
              "fp32 field not allocated (kKz is 3-D only; density and "
              "energy have no fp32 twin)");
  return f;
}

bool Chunk::at_boundary(Face face) const {
  switch (face) {
    case Face::kLeft: return extent_.x0 == 0;
    case Face::kRight: return extent_.x0 + extent_.nx == mesh_.nx;
    case Face::kBottom: return extent_.y0 == 0;
    case Face::kTop: return extent_.y0 + extent_.ny == mesh_.ny;
    case Face::kBack: return extent_.z0 == 0;
    case Face::kFront: return extent_.z0 + extent_.nz == mesh_.nz;
  }
  TEA_ASSERT(false, "invalid face");
}

}  // namespace tealeaf
