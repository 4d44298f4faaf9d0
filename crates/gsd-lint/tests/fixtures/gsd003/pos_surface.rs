// GSD003 positive fixture: one guard held across each name the rule
// learned when its list was completed to the whole `Storage` trait and
// `GridGraph`'s read surface. Linted under crates/gsd-io/src/fixture.rs.
pub fn every_name(cache: &Cache, store: &dyn Storage, grid: &GridGraph) -> crate::Result<()> {
    { let g = cache.slots.lock(); store.exists("grid/meta.json"); }
    { let g = cache.slots.lock(); store.delete("grid/block0")?; }
    { let g = cache.slots.lock(); store.list_keys(); }
    { let g = cache.slots.lock(); store.read_unaccounted("grid/block0", 0, &mut [0u8; 8])?; }
    { let g = cache.slots.lock(); store.sync()?; }
    { let g = cache.slots.lock(); grid.read_block(0, 0)?; }
    { let g = cache.slots.lock(); grid.read_index(0, 0)?; }
    { let g = cache.slots.lock(); grid.load_out_degrees()?; }
    Ok(())
}
