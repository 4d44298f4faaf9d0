// GSD003 positive fixture: one guard held across each name the rule
// learned when its list was completed to the whole `Storage` trait and
// `GridGraph`'s read surface, bound in each shape a guard binding takes.
pub fn every_name(cache: &Cache, store: &dyn Storage, grid: &GridGraph) -> crate::Result<()> {
    { let g = cache.slots.lock(); store.exists("grid/meta.json"); }
    { let g = cache.slots.read()?; store.delete("grid/block0")?; }
    { let g = cache.slots.write().unwrap(); store.list_keys(); }
    { let mut g = cache.slots.lock().expect("poisoned"); store.read_unaccounted("grid/block0", 0, &mut [0u8; 8])?; }
    { let g: Guard<'_> = cache.slots.lock(); store.sync()?; }
    { let g = cache.slots.lock(); grid.read_block(0, 0)?; }
    { let g = cache.slots.lock(); grid.read_index(0, 0)?; }
    { let g = cache.slots.lock(); grid.load_out_degrees()?; }
    Ok(())
}
