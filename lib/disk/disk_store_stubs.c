/* Off-heap block store for Disk: one zero-on-demand char Bigarray per
   device, and copies between it and OCaml bytes.

   The store is calloc'd, so pages of blocks never written stay
   untouched and cost no resident memory; the bigarray is
   CAML_BA_MANAGED, so the GC frees it with the device.  The stdlib has
   no blit between bytes and a bigarray, hence the two memcpy stubs.
   They neither allocate nor raise; the OCaml side checks bounds. */

#include <stdlib.h>
#include <string.h>

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/bigarray.h>

value lfs_disk_store_create(value vlen)
{
  intnat len = Long_val(vlen);
  void *data;
  if (len < 0) caml_invalid_argument("Disk store: negative size");
  /* calloc (0) may return NULL; one byte keeps NULL meaning failure. */
  data = calloc(len > 0 ? (size_t) len : 1, 1);
  if (data == NULL) caml_raise_out_of_memory();
  return caml_ba_alloc_dims(CAML_BA_CHAR | CAML_BA_C_LAYOUT | CAML_BA_MANAGED,
                            1, data, len);
}

/* blit_bytes_to_store src src_pos store dst_pos len */
value lfs_disk_blit_bytes_to_store(value src, value src_pos, value store,
                                   value dst_pos, value len)
{
  memcpy((char *) Caml_ba_data_val(store) + Long_val(dst_pos),
         Bytes_val(src) + Long_val(src_pos), Long_val(len));
  return Val_unit;
}

/* blit_store_to_bytes store src_pos dst dst_pos len */
value lfs_disk_blit_store_to_bytes(value store, value src_pos, value dst,
                                   value dst_pos, value len)
{
  memcpy(Bytes_val(dst) + Long_val(dst_pos),
         (const char *) Caml_ba_data_val(store) + Long_val(src_pos),
         Long_val(len));
  return Val_unit;
}
