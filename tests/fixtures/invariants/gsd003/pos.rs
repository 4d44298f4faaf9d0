// GSD003 positive fixture: guard held across a storage call, anchored
// at the guard binding (line 4).
pub fn refill(cache: &Cache, store: &dyn Storage) -> crate::Result<()> {
    let mut slots = cache.slots.lock();
    let mut buf = vec![0u8; 4096];
    store.read_at("grid/block0", 0, &mut buf)?;
    slots.insert(0, buf);
    Ok(())
}
