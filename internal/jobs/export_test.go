package jobs

// subscribers reports how many subscribers a job currently has.
func (m *Manager) subscribers(id string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return 0
	}
	return len(j.subs)
}
